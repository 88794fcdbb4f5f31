import json
import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modir.errors import (
    DimensionMismatchError,
    EmptyInputError,
    FormatError,
    InvalidConfigError,
    ModirError,
    UnknownPassageError,
)
from modir import index as index_module
from modir import scoring
from modir.evaluation import UnitCorpus, brute_force_search, mrr_at_k, recall_at_k
from modir.index import (
    INDEX_FILES,
    CompressedIndex,
    DuplicateCentroidWarning,
    ResidualCodec,
    SearchParams,
    approximate_candidates,
    bits_per_embedding,
    check_n_probe,
    build_index,
    centroid_count_for,
    exact_rerank,
    fit_codec,
    id_bit_width,
    load_index,
    nearest_centroid_ids,
    pack_codes,
    pack_residuals,
    save_index,
    search,
    select_centroids,
    unpack_codes,
)
from modir.scoring import maxsim_score, maxsim_unit, normalize_rows, passage_rows, rank, walk_rows
from tests.conftest import per_embedding_attributes


def clustered_corpus(rng, n_passages, dim, max_terms=8, spread=0.15):
    """Passages whose term embeddings sit near a per-passage center."""
    corpus = {}
    for i in range(n_passages):
        center = rng.normal(size=dim)
        rows = rng.integers(2, max_terms + 1)
        corpus[i] = center + spread * rng.normal(size=(rows, dim))
    return corpus


class TestCentroidCount:
    @pytest.mark.parametrize(
        "estimate,expected",
        [(1, 1), (2, 2), (4, 2), (5, 4), (16, 4), (17, 8), (10_000, 128), (2**36, 2**18)],
    )
    def test_power_of_two_rounding(self, estimate, expected):
        assert centroid_count_for(estimate) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidConfigError):
            centroid_count_for(0)


class TestSelectCentroids:
    def test_single_centroid_is_sample_mean(self):
        rng = np.random.default_rng(0)
        sample = np.vstack([rng.normal(size=(10, 4)), rng.normal(size=(6, 4))])
        cents = select_centroids(sample, centroid_count_for(1), seed=1)
        assert cents.shape == (1, 4)
        np.testing.assert_allclose(cents[0], sample.mean(axis=0), atol=1e-12)

    def test_recovers_separated_cluster_means(self):
        rng = np.random.default_rng(2)
        true_means = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0], [0.0, -10.0]])
        points = np.vstack([m + 0.01 * rng.normal(size=(50, 2)) for m in true_means])
        cents = select_centroids(points, centroid_count_for(16), seed=3)
        assert cents.shape == (4, 2)
        # each true mean recovered by some centroid
        empirical = np.array([points[i * 50 : (i + 1) * 50].mean(axis=0) for i in range(4)])
        for mean in empirical:
            best = np.min(np.linalg.norm(cents - mean, axis=1))
            assert best < 1e-6

    def test_duplicates_with_warning_when_sample_small(self):
        sample = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.warns(DuplicateCentroidWarning):
            cents = select_centroids(sample, centroid_count_for(64), seed=0)
        assert cents.shape == (8, 2)
        assert np.unique(cents, axis=0).shape[0] == 3

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyInputError):
            select_centroids(np.empty((0, 4)), centroid_count_for(4), seed=0)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_a_sample_that_is_not_2d_is_refused_before_any_warning(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="2-d sample"):
                select_centroids(np.ones(shape), 2, seed=0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        sample = rng.normal(size=(100, 3))
        a = select_centroids(sample, centroid_count_for(64), seed=9)
        b = select_centroids(sample, centroid_count_for(64), seed=9)
        np.testing.assert_array_equal(a, b)


class TestNearestCentroid:
    def test_tie_breaks_to_lowest_id(self):
        centroids = np.zeros((8, 2))
        centroids[2] = [1.0, 0.0]
        centroids[7] = [-1.0, 0.0]
        centroids[0] = [50.0, 50.0]  # keep others far away
        centroids[1] = [50.0, -50.0]
        centroids[3] = [60.0, 0.0]
        centroids[4] = [0.0, 70.0]
        centroids[5] = [0.0, -70.0]
        centroids[6] = [80.0, 80.0]
        vec = np.array([[0.0, 0.3]])  # equidistant from ids 2 and 7
        assert nearest_centroid_ids(vec, centroids)[0] == 2

    def test_duplicate_centroids_map_to_lowest_id(self):
        centroids = np.array([[5.0, 5.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        vec = np.array([[1.1, 0.0]])
        assert nearest_centroid_ids(vec, centroids)[0] == 1

    @pytest.mark.parametrize("rows", [0, 3])
    def test_no_centroids_is_empty_input(self, rows):
        with pytest.raises(EmptyInputError, match="at least one centroid"):
            nearest_centroid_ids(np.ones((rows, 2)), np.empty((0, 2)))

    @pytest.mark.parametrize("vectors,centroids", [
        (np.ones(2), np.ones((3, 2))),
        (np.ones((4, 2, 1)), np.ones((3, 2))),
        (np.ones((4, 2)), np.ones(2)),
    ])
    def test_input_that_is_not_2d_is_invalid_config(self, vectors, centroids):
        with pytest.raises(InvalidConfigError, match="2-d vectors and centroids"):
            nearest_centroid_ids(vectors, centroids)


class TestCodec:
    def test_constant_dimension_collapses_exactly(self):
        residuals = np.full((20, 3), 0.0)
        residuals[:, 1] = 2.5
        codec = fit_codec(residuals)
        np.testing.assert_array_equal(codec.reps[:, 0], np.zeros(4))
        np.testing.assert_array_equal(codec.reps[:, 1], np.full(4, 2.5))
        decoded = codec.decode(codec.encode(residuals))
        np.testing.assert_array_equal(decoded, residuals)

    def test_uniform_sample_quantiles_and_representatives(self):
        rng = np.random.default_rng(5)
        residuals = rng.uniform(-1.0, 1.0, size=(200_000, 2))
        codec = fit_codec(residuals)
        np.testing.assert_allclose(codec.cuts[:, 0], [-0.5, 0.0, 0.5], atol=0.05)
        np.testing.assert_allclose(codec.reps[:, 0], [-0.75, -0.25, 0.25, 0.75], atol=0.05)

    def test_single_vector_sample_reconstructs_itself(self):
        vec = np.array([[0.3, -1.2, 4.0]])
        codec = fit_codec(vec)
        np.testing.assert_allclose(codec.decode(codec.encode(vec)), vec, atol=1e-12)

    def test_representative_lies_within_closed_bucket(self):
        rng = np.random.default_rng(6)
        residuals = rng.normal(size=(500, 5))
        codec = fit_codec(residuals)
        lo = np.vstack([np.full(5, -np.inf), codec.cuts])
        hi = np.vstack([codec.cuts, np.full(5, np.inf)])
        assert np.all(codec.reps >= lo - 1e-12)
        assert np.all(codec.reps <= hi + 1e-12)

    def test_cuts_nondecreasing(self):
        rng = np.random.default_rng(7)
        codec = fit_codec(rng.normal(size=(100, 4)))
        assert np.all(np.diff(codec.cuts, axis=0) >= 0)

    @settings(max_examples=100, deadline=None)
    @given(
        dim=st.integers(1, 9),
        n=st.integers(0, 40),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decode_equals_the_broadcast_lookup_bit_for_bit(self, dim, n, dtype, seed):
        rng = np.random.default_rng(seed)
        reps = rng.normal(size=(4, dim)) * 10.0 ** rng.integers(-30, 30, size=(4, dim))
        codec = ResidualCodec(cuts=np.sort(rng.normal(size=(3, dim)), axis=0).astype(dtype), reps=reps.astype(dtype))
        codes = rng.integers(0, 4, size=(n, dim), dtype=np.uint8)
        expect = codec.reps.astype(np.float64)[codes, np.arange(dim)[None, :]]
        got = codec.decode(codes)
        assert got.dtype == np.float64 and got.shape == (n, dim)
        assert got.tobytes() == expect.tobytes()


class TestCompress:
    """Compression and decompression through build_index and the index's
    single decompression path."""

    def test_embedding_equal_to_centroid(self):
        # as many centroids as distinct rows: every row is its own centroid,
        # every residual is 0, and the fitted codec represents 0 exactly
        rng = np.random.default_rng(8)
        corpus = {f"p{i}": rng.normal(size=(2, 4)).astype(np.float32) for i in range(4)}
        idx = build_index(corpus, seed=0, centroid_count=8)
        np.testing.assert_array_equal(idx.codec.reps, np.zeros((4, 4)))
        for key, mat in corpus.items():
            np.testing.assert_array_equal(idx.decompress_passage(idx.internal_passage(key)), mat)

    def test_round_trip_bounded_by_bucket_radius(self):
        rng = np.random.default_rng(9)
        corpus = {f"{i:03d}": rng.normal(size=(3, 6)) for i in range(100)}
        idx = build_index(corpus, seed=1)  # 100 passages: the codec sample is the whole corpus
        vectors = np.vstack([corpus[k] for k in sorted(corpus)])
        residuals = vectors - idx.centroids.astype(np.float64)[nearest_centroid_ids(vectors, idx.centroids)]
        # per-dimension worst case over the fitted sample itself
        radius = np.abs(residuals - idx.codec.decode(idx.codec.encode(residuals))).max(axis=0)
        back = np.vstack([idx.decompress_passage(i) for i in range(idx.passage_count)])
        assert np.all(np.abs(back - vectors) <= radius + 1e-12)


def random_codes(rng, n, dim, id_bits):
    """n random centroid ids below 2 ** id_bits and (n, dim) residual codes."""
    return rng.integers(0, 1 << id_bits, size=n), rng.integers(0, 4, size=(n, dim)).astype(np.uint8)


def ref_pack_codes(centroid_ids, codes, id_bits):
    """codes.bin from (n, dim) codes, one bit per byte, as the stream was
    packed before the index held its codes packed four per byte."""
    n, d = codes.shape
    shifts = np.arange(id_bits - 1, -1, -1, dtype=np.uint64)
    bits = np.empty((n, id_bits + 2 * d), dtype=np.uint8)
    bits[:, :id_bits] = (centroid_ids.astype(np.uint64)[:, None] >> shifts) & 1
    bits[:, id_bits::2] = (codes >> 1) & 1
    bits[:, id_bits + 1 :: 2] = codes & 1
    return np.packbits(bits).tobytes()


def ref_unpack_residuals(packed, dim):
    """(n, dim) codes from packed bytes: code i of a byte in bits 7 - 2i and 6 - 2i."""
    return ((packed[:, :, None] >> np.array([6, 4, 2, 0], dtype=np.uint8)) & 3).reshape(packed.shape[0], 4 * packed.shape[1])[:, :dim]


class TestBitPacking:
    @pytest.mark.parametrize("n,dim,c_count", [(1, 4, 1), (5, 3, 2), (17, 8, 128), (10, 128, 2**18)])
    def test_round_trip_and_exact_size(self, n, dim, c_count):
        rng = np.random.default_rng(n)
        id_bits = id_bit_width(c_count)
        ids = rng.integers(0, c_count, size=n)
        codes = pack_residuals(rng.integers(0, 4, size=(n, dim)).astype(np.uint8))
        blob = pack_codes(ids, codes, dim, id_bits)
        expected_bits = n * bits_per_embedding(dim, c_count)
        assert len(blob) == -(-expected_bits // 8)  # ceil
        back_ids, back_codes = unpack_codes(blob, n, dim, id_bits)
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_codes, codes)

    @settings(max_examples=200, deadline=None)
    # counts that end inside a chunk, with one centroid (id_bits 0) and with many
    @example(n=13, dim=1, id_bits=0, chunk=8, seed=0)
    @example(n=37, dim=5, id_bits=0, chunk=16, seed=1)
    @example(n=41, dim=2, id_bits=12, chunk=8, seed=2)
    @example(n=45, dim=3, id_bits=7, chunk=16, seed=3)
    @given(
        n=st.integers(0, 70),
        dim=st.integers(1, 9),
        id_bits=st.integers(0, 12),
        chunk=st.sampled_from([8, 16, 24, 65536]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packing_matches_the_bit_layout_and_chunked_unpacking_inverts_it(self, n, dim, id_bits, chunk, seed):
        # chunks of a multiple of 8 rows start on a byte, so unpacking chunk by chunk gives the codes back
        ids, codes = random_codes(np.random.default_rng(seed), n, dim, id_bits)
        bits = [((ids.astype(np.uint64)[:, None] >> np.arange(id_bits - 1, -1, -1, dtype=np.uint64)) & 1)]
        bits.append(np.stack([(codes >> 1) & 1, codes & 1], axis=2).reshape(n, 2 * dim))
        one_shot = np.packbits(np.concatenate(bits, axis=1).astype(np.uint8).ravel()).tobytes()
        assert pack_codes(ids, pack_residuals(codes), dim, id_bits) == one_shot
        with mock.patch("modir.index._PACK_ROWS", chunk):
            back_ids, back_codes = unpack_codes(one_shot, n, dim, id_bits)
        assert back_ids.dtype == np.int64 and back_codes.dtype == np.uint8
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_codes, pack_residuals(codes))

    @settings(max_examples=100, deadline=None)
    @example(n=13, dim=1, id_bits=0, chunk=8, seed=0)
    @example(n=45, dim=3, id_bits=7, chunk=16, seed=3)
    @given(
        n=st.integers(1, 70),
        dim=st.integers(1, 9),
        id_bits=st.integers(0, 12),
        chunk=st.sampled_from([8, 16, 24, 65536]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_save_index_writes_codes_in_chunks_that_join_into_one_stream(self, n, dim, id_bits, chunk, seed):
        # chunks of a multiple of 8 rows end on a byte, so their bytes join into the one-call stream
        ids, codes = random_codes(np.random.default_rng(seed), n, dim, id_bits)
        c_count = 1 << id_bits
        idx = CompressedIndex(
            centroids=np.zeros((c_count, dim), np.float32),
            codec=ResidualCodec(cuts=np.zeros((3, dim), np.float32), reps=np.zeros((4, dim), np.float32)),
            centroid_ids=ids,
            residual_codes=pack_residuals(codes),
            passage_ids=["p"],
            passage_offsets=np.array([0, n]),
        )
        assert id_bit_width(idx.centroid_count) == id_bits
        with tempfile.TemporaryDirectory() as tmp, mock.patch("modir.index._PACK_ROWS", chunk):
            save_index(idx, Path(tmp) / "idx")
            assert (Path(tmp) / "idx" / "codes.bin").read_bytes() == pack_codes(ids, pack_residuals(codes), dim, id_bits)

    def test_headline_bit_arithmetic(self):
        assert bits_per_embedding(128, 2**18) == 274
        assert 2048 / bits_per_embedding(128, 2**18) == pytest.approx(7.47, abs=0.01)


def index_of_codes(rng, codes, id_bits=0, reps=None, passages=1):
    """An index over these (n, dim) codes, with random centroids and codec."""
    n, dim = codes.shape
    reps = rng.normal(size=(4, dim)).astype(np.float32) if reps is None else reps
    return CompressedIndex(
        centroids=rng.normal(size=(1 << id_bits, dim)).astype(np.float32),
        codec=ResidualCodec(cuts=np.sort(rng.normal(size=(3, dim)), axis=0).astype(np.float32), reps=reps),
        centroid_ids=rng.integers(0, 1 << id_bits, size=n),
        residual_codes=pack_residuals(codes),
        passage_ids=[f"p{i}" for i in range(passages)],
        passage_offsets=np.linspace(0, n, passages + 1).astype(np.int64),
    )


class TestPackedResiduals:
    """The index holds its residual codes four per byte, (n, ceil(dim/4))
    uint8, and decodes them through one 256-entry table per byte column."""

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.one_of(st.integers(1, 9), st.just(128)),
        n=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pack_round_trips_with_zero_padding(self, dim, n, seed):
        codes = np.random.default_rng(seed).integers(0, 4, size=(n, dim), dtype=np.uint8)
        packed = pack_residuals(codes)
        assert packed.dtype == np.uint8 and packed.shape == (n, -(-dim // 4))
        assert np.array_equal(ref_unpack_residuals(packed, dim), codes)
        assert not (np.unpackbits(packed, axis=1)[:, 2 * dim :]).any()  # padding bits are zero
        assert np.array_equal(packed, np.packbits(np.stack([codes >> 1, codes & 1], axis=2).reshape(n, 2 * dim), axis=1))

    @pytest.mark.parametrize("dim", [*range(1, 10), 128])
    def test_decode_equals_the_representatives_bit_for_bit(self, dim):
        # every code in every dimension, with representatives over a wide range of exponents
        rng = np.random.default_rng(dim)
        codes = np.concatenate([np.tile(np.arange(4, dtype=np.uint8)[:, None], dim),
                                rng.integers(0, 4, size=(60, dim), dtype=np.uint8)])
        reps = (rng.normal(size=(4, dim)) * 10.0 ** rng.integers(-30, 30, size=(4, dim))).astype(np.float32)
        reps[0, 0] = -0.0
        idx = index_of_codes(rng, codes, id_bits=3, reps=reps, passages=4)
        expect = idx.centroids.astype(np.float64)[idx.centroid_ids] + reps.astype(np.float64)[codes, np.arange(dim)]
        order = rng.permutation(len(codes))
        got = idx.decompress_embeddings(order)
        assert got.dtype == np.float64 and got.shape == (len(codes), dim)
        assert got.tobytes() == expect[order].tobytes()
        assert idx.decompress_embeddings(np.arange(0)).shape == (0, dim)
        table = idx._decode_table.reshape(-1, 256, 4)  # (byte column, byte value, code in the byte)
        byte_codes = ref_unpack_residuals(np.arange(256, dtype=np.uint8)[:, None], 4)
        for d in range(dim):
            lane = table[d // 4, :, d % 4]
            assert lane.tobytes() == reps.astype(np.float64)[byte_codes[:, d % 4], d].tobytes()
        assert not table[-1, :, dim - 4 * (table.shape[0] - 1) :].any()  # padding dimensions decode to 0

    @pytest.mark.parametrize("dim", [1, 3, 6, 128])
    @pytest.mark.parametrize("id_bits", [0, 1, 9])
    def test_saved_codes_equal_the_one_bit_per_byte_stream(self, tmp_path, id_bits, dim):
        rng = np.random.default_rng(dim * 16 + id_bits)
        codes = rng.integers(0, 4, size=(37, dim), dtype=np.uint8)
        idx = index_of_codes(rng, codes, id_bits=id_bits)
        with mock.patch("modir.index._PACK_ROWS", 16):
            save_index(idx, tmp_path / "idx")
        assert (tmp_path / "idx" / "codes.bin").read_bytes() == ref_pack_codes(idx.centroid_ids, codes, id_bits)
        loaded = load_index(tmp_path / "idx")
        assert np.array_equal(loaded.residual_codes, idx.residual_codes)
        assert loaded.decompress_embeddings(np.arange(37)).tobytes() == idx.decompress_embeddings(np.arange(37)).tobytes()

    @pytest.mark.parametrize("shape", [(10, 6), (10, 1), (9, 2)], ids=["unpacked", "narrow", "short"])
    def test_codes_not_in_the_packed_layout_are_refused(self, shape):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidConfigError, match="packed bytes"):
            CompressedIndex(
                centroids=np.zeros((1, 6), np.float32),
                codec=ResidualCodec(cuts=np.zeros((3, 6), np.float32), reps=np.zeros((4, 6), np.float32)),
                centroid_ids=np.zeros(10, np.int64),
                residual_codes=rng.integers(0, 4, size=shape, dtype=np.uint8),
                passage_ids=["p"],
                passage_offsets=np.array([0, 10]),
            )


class TestBuildIndex:
    @pytest.mark.parametrize("corpus", [{"p": [[1.0, 2.0, 3.0]]}, {}], ids=["one-passage", "empty"])
    def test_a_negative_seed_is_a_typed_error_before_any_work(self, corpus):
        with pytest.raises(InvalidConfigError) as exc:
            build_index(corpus, seed=-1)
        assert exc.value.message == "seed must be >= 0, got -1"

    def test_single_vector_corpus(self):
        idx = build_index({"p": [[1.0, 2.0, 3.0]]}, seed=0)
        assert idx.centroid_count == 1
        np.testing.assert_array_equal(idx.list_sizes, [1])
        np.testing.assert_array_equal(idx.search_state.list_offsets, [0, 1])
        assert idx.bits_per_embedding == 2 * 3 + 0

    def test_inverted_lists_partition_embeddings(self):
        rng = np.random.default_rng(10)
        corpus = clustered_corpus(rng, 100, 8)
        idx = build_index(corpus, seed=1)
        state = idx.search_state
        assert state.list_offsets.shape == (idx.centroid_count + 1,)
        assert state.list_offsets[-1] == idx.embedding_count
        np.testing.assert_array_equal(np.diff(state.list_offsets), idx.list_sizes)
        np.testing.assert_array_equal(np.sort(state.positions), np.arange(idx.embedding_count))

    def test_list_membership_matches_nearest_centroid(self):
        rng = np.random.default_rng(11)
        corpus = clustered_corpus(rng, 40, 6)
        idx = build_index(corpus, seed=2)
        flat = np.vstack([np.asarray(corpus[k], dtype=np.float64) for k in sorted(corpus, key=str)])
        expected = nearest_centroid_ids(flat, idx.centroids)
        np.testing.assert_array_equal(idx.centroid_ids, expected)
        state = idx.search_state
        list_members = np.argsort(state.positions)  # the embedding at each list row
        emb_passage = np.repeat(np.arange(idx.passage_count), np.diff(idx.passage_offsets))
        np.testing.assert_array_equal(state.member_passages, emb_passage[list_members])
        for cid in range(idx.centroid_count):
            members = list_members[state.list_offsets[cid] : state.list_offsets[cid + 1]]
            assert np.all(expected[members] == cid)
            assert np.all(np.diff(members) > 0)

    def test_deterministic_rebuild_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        corpus = clustered_corpus(rng, 50, 5)
        for name in ("a", "b"):
            save_index(build_index(corpus, seed=7), tmp_path / name)
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    @pytest.mark.filterwarnings("ignore::modir.index.DuplicateCentroidWarning")
    def test_numeric_ids_rank_ties_in_string_order_like_the_oracle(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx = build_index({2: mat, 10: mat.copy(), 3: mat.copy()}, seed=0)
        assert idx.passage_ids == ["10", "2", "3"]
        query = np.array([[1.0, 0.5]])
        got = search(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=3, final_k=3))
        assert got == brute_force_search(query, idx.decompressed_corpus(), 3)
        assert [pid for pid, _ in got] == ["10", "2", "3"]

    def test_mixed_int_and_str_ids(self):
        idx = build_index({1: [[1.0, 0.0]], "a": [[0.0, 1.0]]}, seed=0)
        assert idx.passage_ids == ["1", "a"]

    def test_ids_equal_as_strings_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_index({1: [[1.0, 0.0]], "1": [[0.0, 1.0]]}, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyInputError):
            build_index({}, seed=0)

    def test_empty_passage_rejected(self):
        with pytest.raises(InvalidConfigError):
            build_index({"p": np.empty((0, 4))}, seed=0)

    def test_table_without_columns_rejected(self):
        with pytest.raises(InvalidConfigError, match="at least one column"):
            build_index({"p": np.empty((2, 0))}, seed=0)

    def test_passage_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_index({"a": np.ones((2, 4)), "b": np.ones((2, 3))}, seed=0)

    def test_non_finite_values_name_the_first_bad_passage(self):
        corpus = {key: np.ones((3, 4)) for key in ("a", "b", "c", "d", "e")}
        corpus["b"][2, 1] = np.nan
        corpus["d"][0, 3] = np.inf
        with pytest.raises(InvalidConfigError, match=r"^passage 'b' contains non-finite values$"):
            build_index(corpus, seed=0)
        corpus["b"][2, 1] = 0.0
        with pytest.raises(InvalidConfigError, match=r"^passage 'd' contains non-finite values$"):
            build_index(corpus, seed=0)

    def test_a_value_beyond_float32_names_the_first_passage_holding_one(self):
        # 1e39 is finite in float64, but the index stores float32, where it is inf
        corpus = {f"p{i}": np.arange(12.0).reshape(3, 4) + i for i in range(6)}
        corpus["p3"][1, 2] = 1e39
        corpus["p4"][0, 0] = -1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidConfigError, match=r"^passage 'p3' contains a finite value beyond float32's range$"):
                build_index(corpus, seed=0)
            corpus["p3"][1, 2] = np.nan  # in the same block, NaN keeps its message
            with pytest.raises(InvalidConfigError, match=r"^passage 'p3' contains non-finite values$"):
                build_index(corpus, seed=0)

    def test_a_fitted_codec_beyond_float32_is_refused(self):
        # every row fits float32, but around the one centroid, 1e38, a residual reaches -4e38
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidConfigError, match=r"^the fitted codec holds a value beyond float32's range"):
                build_index({"a": [[3e38]], "b": [[3e38]], "c": [[-3e38]]}, centroid_count=1)


def small_index(seed=13, n_passages=60, dim=6):
    rng = np.random.default_rng(seed)
    corpus = clustered_corpus(rng, n_passages, dim)
    idx = build_index(corpus, seed=seed)
    query = rng.normal(size=(4, dim))
    return corpus, idx, query


def coded_index(centroids, centroid_ids, passage_ids, passage_offsets):
    """An index whose rows are their centroids: every residual decodes to 0."""
    dim = centroids.shape[1]
    return CompressedIndex(
        centroids=centroids,
        codec=ResidualCodec(cuts=np.zeros((3, dim), np.float32), reps=np.zeros((4, dim), np.float32)),
        centroid_ids=np.asarray(centroid_ids, dtype=np.int64),
        residual_codes=pack_residuals(np.zeros((len(centroid_ids), dim), np.uint8)),
        passage_ids=passage_ids,
        passage_offsets=np.asarray(passage_offsets, dtype=np.int64),
    )


class TestApproximate:
    def test_full_probe_matches_exact_on_fetched(self):
        # a float32 score less its gap is within two gaps below the float64 one, and never above it
        _, idx, query = small_index()
        params = SearchParams(n_probe=idx.centroid_count, candidate_k=10_000, final_k=10)
        approx = dict(approximate_candidates(query, idx, params))
        assert len(approx) == idx.passage_count  # full probe fetches everyone
        exact = dict(exact_rerank(query, list(approx), idx))
        gap = scoring.maxsim_rounding_gap(*query.shape, np.float32)
        for pid, a in approx.items():
            assert exact[pid] - 2.0 * gap <= a <= exact[pid]

    def test_passage_in_unprobed_centroids_is_absent(self):
        # two tight clusters far apart; probing one centroid cannot fetch the other cluster
        corpus = {
            0: np.array([[10.0, 0.0], [10.1, 0.0]]),
            1: np.array([[-10.0, 0.0], [-10.1, 0.0]]),
        }
        idx = build_index(corpus, seed=0, centroid_count=2)
        query = np.array([[10.0, 0.0]])
        got = approximate_candidates(query, idx, SearchParams(n_probe=1, candidate_k=10, final_k=1))
        assert [pid for pid, _ in got] == ["0"]

    def test_lower_bound_against_exact_rerank(self):
        # The unfetched-term contribution is 0, so the bound is guaranteed when
        # per-term maxima are nonnegative; nonnegative embeddings ensure that.
        for seed in range(5):
            rng = np.random.default_rng(40 + seed)
            corpus = {
                i: np.abs(rng.normal(size=(rng.integers(2, 8), 6))) for i in range(60)
            }
            idx = build_index(corpus, seed=seed)
            query = np.abs(rng.normal(size=(4, 6)))
            for n_probe in (1, 2, idx.centroid_count):
                params = SearchParams(n_probe=n_probe, candidate_k=10_000, final_k=10)
                approx = approximate_candidates(query, idx, params)
                exact = dict(exact_rerank(query, [pid for pid, _ in approx], idx))
                for pid, a in approx:
                    assert a <= exact[pid] + 1e-6

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([*range(1, 9), 128]), terms=st.integers(1, 32),
           kind=st.sampled_from(["mixed-signs", "zero-rows", "nearly-parallel"]))
    def test_no_first_stage_score_exceeds_its_exact_score(self, seed, dim, terms, kind):
        # Every row its own centroid, so the decompressed rows are exactly these, and a full probe
        # fetches every (passage, term) pair: the float32 sum less its gap is never above the float64 MaxSim.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        rows = rng.normal(size=(n, dim))
        query = rng.normal(size=(terms, dim))
        if kind == "zero-rows":
            rows[rng.random(n) < 0.4] = 0.0
            query[rng.random(terms) < 0.4] = 0.0
        elif kind == "nearly-parallel":  # all positive, every cosine within about 1e-6 of 1
            base = 1.0 + np.abs(rng.normal(size=dim))
            rows = base + 1e-6 * rng.normal(size=(n, dim))
            query = base + 1e-6 * rng.normal(size=(terms, dim))
        cuts = np.unique(rng.integers(1, n, size=min(n - 1, 8))) if n > 1 else np.array([], dtype=np.int64)
        offsets = np.concatenate(([0], cuts, [n]))
        ids = [f"p{i:02d}" for i in range(offsets.size - 1)]
        idx = coded_index(rows.astype(np.float32), np.arange(n), ids, offsets)
        params = SearchParams(n_probe=n, candidate_k=len(ids), final_k=1)
        approx = approximate_candidates(query, idx, params)
        exact = dict(exact_rerank(query, ids, idx))
        assert sorted(pid for pid, _ in approx) == ids
        gap = scoring.maxsim_rounding_gap(terms, dim, np.float32)
        for pid, a in approx:
            assert exact[pid] - 2.0 * gap <= a <= exact[pid]

    def test_candidate_k_truncates_with_id_tiebreak(self):
        _, idx, query = small_index()
        full = approximate_candidates(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=10_000, final_k=1))
        top5 = approximate_candidates(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=5, final_k=1))
        assert top5 == full[:5]
        scores = [s for _, s in full]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("full_probe", [False, True], ids=["n_probe-1", "full-probe"])
    def test_equals_a_plain_reference_loop(self, full_probe):
        rng = np.random.default_rng(5)
        axes = np.eye(3)
        corpus = {f"f{i}": axes[i % 3] + 0.05 * rng.normal(size=(3, 3)) for i in range(12)}
        corpus["two-lists"] = np.vstack([axes[0], axes[1]]) + 0.05 * rng.normal(size=(2, 3))
        corpus["opposite"] = -axes[0] + 0.05 * rng.normal(size=(2, 3))
        idx = build_index(corpus, seed=0, centroid_count=4)
        query = np.vstack([axes[0], axes[1], axes[0] + axes[1]]) + 0.05 * rng.normal(size=(3, 3))
        n_probe = idx.centroid_count if full_probe else 1

        cents = idx.centroids.astype(np.float64)
        probed = [set(np.argsort(((cents - t) ** 2).sum(axis=1), kind="stable")[:n_probe]) for t in query]
        best = {}  # passage -> per-term best float32 cosine over fetched rows, None when nothing was fetched
        for i, pid in enumerate(idx.passage_ids):
            rows = normalize_rows(idx.decompress_passage(i)).astype(np.float32)
            cids = idx.centroid_ids[idx.passage_offsets[i] : idx.passage_offsets[i + 1]]
            per_term = []
            for t, term in enumerate(normalize_rows(query).astype(np.float32)):
                sims = [float(term @ row) for row, cid in zip(rows, cids) if cid in probed[t]]
                per_term.append(max(sims) if sims else None)
            if any(s is not None for s in per_term):
                best[pid] = per_term
        reference = sorted(((sum(s for s in b if s is not None), pid) for pid, b in best.items()),
                           key=lambda e: (-e[0], idx.internal_passage(e[1])))

        got = approximate_candidates(query, idx, SearchParams(n_probe=n_probe, candidate_k=1000, final_k=1))
        assert [pid for pid, _ in got] == [pid for _, pid in reference]
        # each reported score is the float32 sum less one gap; two float32 evaluations differ by at most a gap
        gap = scoring.maxsim_rounding_gap(*query.shape, np.float32)
        for (_, score), (expect, _) in zip(got, reference):
            assert abs(score - (expect - gap)) <= gap
        if full_probe:  # the cases the table must get right are really exercised
            two = idx.internal_passage("two-lists")
            assert len(set(idx.centroid_ids[idx.passage_offsets[two] : idx.passage_offsets[two + 1]])) == 2
            assert min(best["opposite"]) < 0.0

    def test_a_near_tie_probes_the_list_its_row_is_filed_under(self):
        # |x|^2 = 1e12 swamps the centroids' 2e-5 gap in |c|^2: the full squared
        # distances both round to 1e12 + 1, while the score files the row under centroid 1
        centroids = np.array([[0.0, 1.0], [0.0, 0.99999]], dtype=np.float32)
        row = np.array([[1e6, 0.0]])
        filed = nearest_centroid_ids(row, centroids)
        assert filed.tolist() == [1]
        idx = coded_index(centroids, np.array([filed[0], 0]), ["a", "b"], [0, 1, 2])
        got = approximate_candidates(row, idx, SearchParams(n_probe=1, candidate_k=10, final_k=1))
        assert "a" in [pid for pid, _ in got]

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), dim=st.integers(1, 6), terms=st.integers(1, 8),
           scale=st.sampled_from([1e-3, 1.0, 1e6]))
    def test_n_probe_one_reads_the_lists_that_assignment_names(self, seed, k, dim, terms, scale):
        rng = np.random.default_rng(seed)
        centroids = rng.normal(size=(k, dim)).astype(np.float32)
        assume(np.unique(centroids, axis=0).shape[0] == k)
        n = int(rng.integers(1, 4 * k + 2))
        cuts = np.unique(rng.integers(1, n, size=min(n - 1, 10))) if n > 1 else np.array([], dtype=np.int64)
        offsets = np.concatenate(([0], cuts, [n]))
        idx = coded_index(centroids, rng.integers(0, k, size=n), [f"p{i:03d}" for i in range(offsets.size - 1)], offsets)
        query = scale * rng.normal(size=(terms, dim))
        lists = set(nearest_centroid_ids(query, idx.centroids).tolist())
        expect = [pid for i, pid in enumerate(idx.passage_ids)
                  if lists & set(idx.centroid_ids[offsets[i] : offsets[i + 1]].tolist())]
        got = approximate_candidates(query, idx, SearchParams(n_probe=1, candidate_k=n, final_k=1))
        assert sorted(pid for pid, _ in got) == expect

    def test_query_dim_mismatch(self):
        _, idx, _ = small_index()
        with pytest.raises(DimensionMismatchError):
            approximate_candidates(np.zeros((2, idx.dim + 1)), idx, SearchParams(n_probe=1))

    def test_nprobe_above_centroid_count_rejected(self):
        _, idx, query = small_index()
        with pytest.raises(InvalidConfigError):
            approximate_candidates(query, idx, SearchParams(n_probe=idx.centroid_count + 1))

    def test_nprobe_limit_is_the_centroid_count(self):
        _, idx, query = small_index()
        count = idx.centroid_count
        check_n_probe(SearchParams(n_probe=count), idx)
        assert approximate_candidates(query, idx, SearchParams(n_probe=count, candidate_k=idx.passage_count))
        message = f"^n_probe {count + 1} exceeds centroid count {count}$"
        for call in (check_n_probe, lambda p, i: approximate_candidates(query, i, p)):
            with pytest.raises(InvalidConfigError, match=message):
                call(SearchParams(n_probe=count + 1), idx)


# Each call takes one knob value; the error names the knob.
KNOB_CALLS = {
    "n_probe": ("n_probe", lambda v, idx, q: SearchParams(n_probe=v)),
    "candidate_k": ("candidate_k", lambda v, idx, q: SearchParams(n_probe=1, candidate_k=v, final_k=1)),
    "final_k": ("final_k", lambda v, idx, q: SearchParams(n_probe=1, candidate_k=50, final_k=v)),
    "rank": ("cutoff k", lambda v, idx, q: rank([3.0, 1.0, 2.0], v)),
    "maxsim_top_k": ("cutoff k", lambda v, idx, q: scoring.maxsim_top_k(
        normalize_rows(q), (unit := idx.unit_corpus()).grouped_rows, None, unit.offsets, v, unit.exact_rows)),
    "exact_rerank": ("cutoff k", lambda v, idx, q: exact_rerank(q, ["17", "3", "41", "0"], idx, k=v)),
    "brute_force_search": ("cutoff k", lambda v, idx, q: brute_force_search(q, idx.unit_corpus(), v)),
    "mrr_at_k": ("cutoff k", lambda v, idx, q: mrr_at_k({"q": [("a", 1.0)]}, {"q": {"a": 1}}, v)),
    "recall_at_k": ("cutoff k", lambda v, idx, q: recall_at_k({"q": [("a", 1.0)]}, {"q": {"a": 1}}, v)),
}


class TestIntegerKnobs:
    @pytest.mark.parametrize(
        "value", [2.5, 20.0, float("nan"), True, "3"], ids=["half", "whole-float", "nan", "bool", "str"]
    )
    @pytest.mark.parametrize("knob", list(KNOB_CALLS))
    def test_a_knob_that_is_not_an_integer_is_refused_by_name(self, knob, value):
        name, call = KNOB_CALLS[knob]
        _, idx, query = small_index()
        with pytest.raises(InvalidConfigError) as exc:
            call(value, idx, query)
        assert exc.value.message == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("knob", list(KNOB_CALLS))
    def test_a_numpy_integer_is_an_integer(self, knob):
        _, idx, query = small_index()
        KNOB_CALLS[knob][1](np.int64(2), idx, query)


class TestRerank:
    def test_single_candidate_exact_value(self):
        _, idx, query = small_index()
        (pid, score), = exact_rerank(query, ["3"], idx)
        assert pid == "3"
        assert score == maxsim_score(query, idx.decompress_passage(idx.internal_passage("3")))

    def test_all_candidates_equal_brute_force(self):
        _, idx, query = small_index()
        ranked = exact_rerank(query, list(idx.passage_ids), idx)
        oracle = brute_force_search(query, idx.decompressed_corpus(), idx.passage_count)
        assert ranked == oracle

    @pytest.mark.filterwarnings("ignore::modir.index.DuplicateCentroidWarning")
    def test_duplicate_content_ties_ascend_by_id(self):
        mat = np.array([[1.0, 0.0], [0.0, 1.0]])
        corpus = {"7": mat, "2": mat.copy(), "5": np.array([[-1.0, -1.0]])}
        idx = build_index(corpus, seed=3)
        ranked = exact_rerank(np.array([[1.0, 0.0]]), ["7", "2", "5"], idx)
        assert [pid for pid, _ in ranked[:2]] == ["2", "7"]
        assert ranked[0][1] == ranked[1][1]

    def test_unknown_passage_rejected(self):
        _, idx, query = small_index()
        with pytest.raises(UnknownPassageError):
            exact_rerank(query, ["no-such-passage"], idx)

    def test_no_candidates(self):
        _, idx, query = small_index()
        assert exact_rerank(query, [], idx) == []

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, k):
        _, idx, query = small_index()
        with pytest.raises(InvalidConfigError, match=f"got {k}"):
            exact_rerank(query, ["17", "3", "41", "0"], idx, k=k)

    @pytest.mark.parametrize("k", [None, 2, 3])
    def test_a_passage_listed_twice_is_ranked_once(self, k):
        _, idx, query = small_index()
        ranked = exact_rerank(query, ["17", "3", "17", "41", "3"], idx, k=k)
        assert ranked == exact_rerank(query, ["17", "3", "41"], idx, k=k)
        assert len({pid for pid, _ in ranked}) == len(ranked) == (k or 3)

    def test_every_score_equals_maxsim_of_the_decompressed_passage(self):
        _, idx, query = small_index()
        candidates = ["41", "3", "17", "0", "59", "26"]  # out of id order on purpose
        ranked = exact_rerank(query, candidates, idx)
        assert sorted(pid for pid, _ in ranked) == sorted(candidates)
        for pid, score in ranked:
            assert score == maxsim_score(query, idx.decompress_passage(idx.internal_passage(pid)))

    def test_ids_are_looked_up_as_strings_and_the_first_unknown_is_named(self):
        _, idx, query = small_index()
        assert exact_rerank(query, [17, "3", np.int64(41)], idx) == exact_rerank(query, ["17", "3", "41"], idx)
        assert exact_rerank(query, iter(["17", "3"]), idx) == exact_rerank(query, ["3", "17"], idx)
        for candidates, named in ((["3", "x", 99], "'x'"), (["3", 99, "x"], "99")):
            with pytest.raises(UnknownPassageError) as exc:
                exact_rerank(query, candidates, idx)
            assert exc.value.message == f"unknown passage id {named}"

    @pytest.mark.parametrize("trim", ["assign", "del"])
    def test_a_candidate_list_filtered_in_place_ranks_exactly_what_it_lists(self, monkeypatch, trim):
        # a first stage whose list is cut down in place, as a caller's filter would
        _, idx, query = small_index()
        params = SearchParams(n_probe=idx.centroid_count, candidate_k=20, final_k=10)
        first = approximate_candidates

        def filtered(*args):
            candidates = first(*args)
            assert len(candidates) == 20
            if trim == "assign":
                candidates[:] = candidates[::3]
            else:
                del candidates[7:]
            return candidates

        monkeypatch.setattr(index_module, "approximate_candidates", filtered)
        kept = [pid for pid, _ in filtered(query, idx, params)]
        assert len(kept) == 7
        ranked = search(query, idx, params)
        assert sorted(pid for pid, _ in ranked) == sorted(kept)
        assert ranked == exact_rerank(query, kept, idx)

    def test_candidates_from_another_index_rank_this_indexs_passages_under_their_ids(self, monkeypatch):
        rng = np.random.default_rng(13)
        corpus = {f"doc{i:03d}": m for i, m in enumerate(clustered_corpus(rng, 70, 6).values())}
        query = rng.normal(size=(4, 6))
        a = build_index({pid: m for pid, m in corpus.items() if pid < "doc060"}, seed=13)
        params = SearchParams(n_probe=1, candidate_k=30, final_k=30)
        first = approximate_candidates

        def candidates_from(hi):  # the first stage, run on an index over doc030 up to hi
            b = build_index({pid: m for pid, m in corpus.items() if "doc030" <= pid < hi}, seed=13)
            full = SearchParams(n_probe=b.centroid_count, candidate_k=30, final_k=30)
            monkeypatch.setattr(index_module, "approximate_candidates", lambda q, _, p: first(q, b, full))
            return [pid for pid, _ in first(query, b, full)]

        ids = candidates_from("doc060")
        ranked = search(query, a, params)
        assert sorted(pid for pid, _ in ranked) == sorted(ids) == [f"doc{i:03d}" for i in range(30, 60)]
        for pid, score in ranked:
            assert score == maxsim_score(query, a.decompress_passage(a.internal_passage(pid)))
        lacking = next(pid for pid in candidates_from("doc070") if pid >= "doc060")
        with pytest.raises(UnknownPassageError, match=f"unknown passage id '{lacking}'"):
            search(query, a, params)


class TestSearch:
    def test_single_passage_corpus(self):
        corpus = {"p": np.array([[0.5, 0.5], [1.0, 0.0]])}
        idx = build_index(corpus, seed=0)
        out = search(np.array([[1.0, 1.0]]), idx, SearchParams(n_probe=1, candidate_k=5, final_k=3))
        assert len(out) == 1
        assert out[0][0] == "p"
        assert out[0][1] == maxsim_score([[1.0, 1.0]], idx.decompress_passage(0))

    def test_full_probe_equals_brute_force_oracle(self):
        for seed in (30, 31):
            _, idx, query = small_index(seed=seed)
            params = SearchParams(n_probe=idx.centroid_count, candidate_k=idx.passage_count, final_k=idx.passage_count)
            got = search(query, idx, params)
            oracle = brute_force_search(query, idx.decompressed_corpus(), idx.passage_count)
            assert got == oracle

    def test_unit_corpus_oracle_equals_the_decompressed_oracle(self, monkeypatch):
        monkeypatch.setattr("modir.index._UNIT_BLOCK", 7)  # blocks that cut passages apart
        _, idx, query = small_index()
        unit, raw = idx.unit_corpus(), idx.decompressed_corpus()
        assert unit.ids == list(raw)
        for i, pid in enumerate(raw):
            assert np.array_equal(unit.exact_rows(np.array([i])), normalize_rows(raw[pid]))
        assert brute_force_search(query, unit, idx.passage_count) == brute_force_search(query, raw, idx.passage_count)
        with pytest.raises(DimensionMismatchError):
            brute_force_search(np.zeros((2, idx.dim + 1)), unit, 3)

    def test_a_query_without_rows_is_rejected_on_every_path(self):
        _, idx, _ = small_index()
        empty = np.zeros((0, idx.dim))
        params = SearchParams(n_probe=idx.centroid_count, candidate_k=5, final_k=5)
        calls = [
            lambda: search(empty, idx, params),
            lambda: approximate_candidates(empty, idx, params),
            lambda: exact_rerank(empty, ["3", "17"], idx),
            lambda: brute_force_search(empty, idx.unit_corpus(), 5),
            lambda: brute_force_search(empty, idx.decompressed_corpus(), 5),
        ]
        for call in calls:
            with pytest.raises(EmptyInputError):
                call()

    @pytest.mark.parametrize("shape", [(6,), (2, 5), (0, 6)], ids=["1-d", "wrong-width", "no-rows"])
    def test_a_malformed_query_is_the_same_error_on_every_path(self, shape):
        corpus, idx, _ = small_index(dim=6)
        query = np.ones(shape)
        params = SearchParams(n_probe=idx.centroid_count, candidate_k=5, final_k=5)
        calls = {
            "approximate_candidates": lambda: approximate_candidates(query, idx, params),
            "exact_rerank": lambda: exact_rerank(query, ["3", "17"], idx),
            "search": lambda: search(query, idx, params),
            "oracle over a mapping": lambda: brute_force_search(query, corpus, 5),
            "oracle over a UnitCorpus": lambda: brute_force_search(query, idx.unit_corpus(), 5),
        }
        expected = (
            (EmptyInputError, "query has no rows")
            if shape[0] == 0
            else (DimensionMismatchError, f"query must be a (terms, 6) matrix, got shape {shape}")
        )
        for name, call in calls.items():
            with pytest.raises(ModirError) as exc:
                call()
            assert (type(exc.value), exc.value.message) == expected, name

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "entry",
        ["search", "approximate_candidates", "exact_rerank", "oracle over a mapping", "oracle over a UnitCorpus"],
    )
    def test_a_non_finite_query_is_refused_on_every_path(self, entry, value):
        corpus, idx, query = small_index(dim=6)
        query[1, 2] = value
        params = SearchParams(n_probe=idx.centroid_count, candidate_k=5, final_k=5)
        calls = {
            "search": lambda: search(query, idx, params),
            "approximate_candidates": lambda: approximate_candidates(query, idx, params),
            "exact_rerank": lambda: exact_rerank(query, ["3", "17"], idx),
            "oracle over a mapping": lambda: brute_force_search(query, corpus, 5),
            "oracle over a UnitCorpus": lambda: brute_force_search(query, idx.unit_corpus(), 5),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic warns
            with pytest.raises(InvalidConfigError) as exc:
                calls[entry]()
        assert exc.value.message == "query contains non-finite values"

    def test_unit_corpus_ids_must_ascend(self):
        with pytest.raises(InvalidConfigError, match="ascending"):
            float64_unit_corpus(["b", "a"], np.eye(2), np.array([0, 1, 2]))

    def test_a_float32_unit_corpus_needs_its_float64_rows(self):
        rows = np.eye(2)
        unit = UnitCorpus(["a", "b"], rows.astype(np.float32), np.array([0, 1, 2]), lambda passages: rows[passages])
        b = unit.exact_rows(np.array([1]))
        assert b.dtype == np.float64 and b.tolist() == [[0.0, 1.0]]

    def test_a_unit_corpus_passage_without_rows_is_refused(self):
        with pytest.raises(EmptyInputError, match="a passage has no rows"):
            float64_unit_corpus(["a", "b"], np.eye(2), np.array([0, 2, 2]))

    def test_final_k_larger_than_corpus_returns_all_without_padding(self):
        _, idx, query = small_index(n_passages=7)
        out = search(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=100, final_k=100))
        assert len(out) == 7

    def test_repeated_query_decompresses_only_its_survivors_rows(self, monkeypatch):
        _, idx, query = small_index()
        params = SearchParams(n_probe=2, candidate_k=20, final_k=10)
        first = search(query, idx, params)
        calls = []
        original = CompressedIndex.decompress_embeddings
        monkeypatch.setattr(
            CompressedIndex, "decompress_embeddings", lambda self, ids: calls.append(ids) or original(self, ids)
        )
        assert search(query, idx, params) == first
        emb_passage = np.repeat(np.arange(idx.passage_count), np.diff(idx.passage_offsets))
        decoded = emb_passage[np.concatenate(calls)]
        survivors = np.unique(decoded)
        candidates = [idx.internal_passage(pid) for pid, _ in approximate_candidates(query, idx, params)]
        # whole passages, each once: the final_k returned and the few within rounding of the cut, never the rest
        assert decoded.size == np.diff(idx.passage_offsets)[survivors].sum()
        assert {idx.internal_passage(pid) for pid, _ in first} <= set(survivors.tolist()) < set(candidates)
        assert survivors.size < len(candidates)

    def test_unit_row_table_holds_each_lists_normalized_rows(self, monkeypatch, tmp_path):
        monkeypatch.setattr("modir.index._UNIT_BLOCK", 7)  # blocks that cut lists and passages apart
        _, idx, _ = small_index()
        save_index(idx, tmp_path / "idx")
        for fresh in (idx, load_index(tmp_path / "idx")):  # the first search builds it, not build or load
            assert "search_state" not in vars(fresh)
        state = idx.search_state
        table = state.unit_rows
        assert table.shape == (idx.embedding_count, idx.dim) and table.dtype == np.float32
        list_members = np.argsort(state.positions)
        for cid in range(idx.centroid_count):
            span = slice(state.list_offsets[cid], state.list_offsets[cid + 1])
            expect = normalize_rows(idx.decompress_embeddings(list_members[span])).astype(np.float32)
            assert table[span].tobytes() == expect.tobytes()
        walk = walk_rows(idx.passage_offsets)
        assert idx.unit_corpus().grouped_rows.tobytes() == table[state.positions[walk]].tobytes()
        emb_ids, offsets = passage_rows(idx.passage_offsets, np.array([5, 2]))  # as exact_rerank reads them
        positions = state.positions[emb_ids]
        for i, internal in enumerate((5, 2)):
            rows = table[positions[offsets[i] : offsets[i + 1]]]
            assert rows.tobytes() == normalize_rows(idx.decompress_passage(internal)).astype(np.float32).tobytes()

    @staticmethod
    def random_code_index(n=100_000, dim=8, c_count=64, per_passage=20):
        """Random codes standing in for a build: 100,000 rows of dim 8 make a 3.2 MB float32
        table, and computing it in one piece would add several float64 table-sized temporaries."""
        rng = np.random.default_rng(3)
        return CompressedIndex(
            centroids=rng.normal(size=(c_count, dim)).astype(np.float32),
            codec=ResidualCodec(cuts=np.zeros((3, dim), np.float32), reps=np.ones((4, dim), np.float32)),
            centroid_ids=rng.integers(0, c_count, size=n),
            residual_codes=pack_residuals(rng.integers(0, 4, size=(n, dim)).astype(np.uint8)),
            passage_ids=[f"p{i:05d}" for i in range(n // per_passage)],
            passage_offsets=np.arange(0, n + 1, per_passage),
        )

    @staticmethod
    def first_search_bound(idx) -> int:
        """The float32 table, the arrays of one entry per embedding that the state step holds while it builds
        the table (the int64 list order, and each list row's passage and each embedding's list row as int32),
        and eight float64 blocks of 2,048 rows, which bound search's temporaries."""
        n, dim = idx.embedding_count, idx.dim
        return n * dim * 4 + n * (8 + 4 + 4) + 8 * 2048 * dim * 8

    def test_unit_row_table_build_peaks_below_the_table_plus_eight_blocks(self):
        idx = self.random_code_index()
        tracemalloc.start()
        try:
            state = idx.search_state
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.unit_rows.nbytes == idx.embedding_count * idx.dim * 4
        bound = self.first_search_bound(idx)
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    def test_a_first_search_holds_no_float64_array_of_corpus_size(self):
        idx = self.random_code_index()
        query = np.random.default_rng(4).normal(size=(32, idx.dim))
        tracemalloc.start()
        try:
            ranked = search(query, idx, SearchParams(n_probe=2, candidate_k=1000, final_k=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ranked) == 10
        bound = self.first_search_bound(idx)
        assert bound < idx.embedding_count * idx.dim * 8  # room for no float64 copy of every row
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    def test_unit_corpus_build_peaks_below_the_table_plus_eight_blocks(self):
        idx = self.random_code_index()
        tracemalloc.start()
        try:
            unit = idx.unit_corpus()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, dim = idx.embedding_count, idx.dim
        assert unit.grouped_rows.dtype == np.float32 and unit.grouped_rows.nbytes == n * dim * 4
        bound = n * dim * 4 + n * 8 + 8 * 2048 * dim * 8  # the table, the int64 row ids, eight float64 blocks
        assert peak < bound, f"peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"

    @pytest.mark.parametrize("k", [10, 4999, None], ids=["k10", "all-but-one", "all"])
    def test_an_oracle_query_holds_no_float64_array_of_corpus_size(self, monkeypatch, k):
        # The scan reads slices of the grouped table, so a gather or a copy of it fails here. Blocks of 128
        # rows keep the exact pass's 16 decoded float64 blocks, a fixed cost, below the bound at this size.
        monkeypatch.setattr("modir.scoring._MAXSIM_BLOCK", 128)
        idx = self.random_code_index(dim=32)
        unit = idx.unit_corpus()
        query = np.random.default_rng(4).normal(size=(32, idx.dim))
        tracemalloc.start()
        try:
            ranked = brute_force_search(query, unit, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ranked) == (k or idx.passage_count)
        float32_table = unit.grouped_rows.nbytes
        assert peak < float32_table / 4, f"peak {peak / 1e6:.2f} MB, the float32 table {float32_table / 1e6:.2f} MB"

    def test_an_oracle_query_decodes_only_its_survivors_rows(self, monkeypatch):
        _, idx, query = small_index()
        unit = idx.unit_corpus()
        expect = brute_force_search(query, idx.decompressed_corpus(), 3)
        calls = []
        original = CompressedIndex.decompress_embeddings
        monkeypatch.setattr(
            CompressedIndex, "decompress_embeddings", lambda self, ids: calls.append(ids) or original(self, ids)
        )
        got = brute_force_search(query, unit, 3)
        assert got == expect
        emb_passage = np.repeat(np.arange(idx.passage_count), np.diff(idx.passage_offsets))
        decoded = np.concatenate(calls)
        survivors = np.unique(emb_passage[decoded])
        # whole passages, each once: the three returned and the few within rounding of the cut
        assert decoded.size == np.diff(idx.passage_offsets)[survivors].sum()
        assert {idx.internal_passage(pid) for pid, _ in got} <= set(survivors.tolist())
        assert decoded.size < idx.embedding_count / 4

    def test_integer_arrays_are_int32_below_two_to_the_31(self):
        assert index_module._number_type(2**31 - 1) is np.int32
        assert index_module._number_type(2**31) is np.int64
        _, idx, _ = small_index()
        state = idx.search_state
        assert state.member_passages.dtype == state.positions.dtype == np.int32


def assert_same_ranking(got, expect):
    """The same ids in the same order, and scores equal bit for bit (NaN too)."""
    assert [pid for pid, _ in got] == [pid for pid, _ in expect]
    assert np.array([s for _, s in got]).tobytes() == np.array([s for _, s in expect]).tobytes()


def per_passage_oracle(query, unit, k):
    """``maxsim_unit`` of every passage, in id order, ranked, first k."""
    q_unit = normalize_rows(query)
    ids = unit.ids
    scores = np.array([maxsim_unit(q_unit, unit.exact_rows(np.array([i]))) for i in range(len(ids))])
    return [(ids[i], float(scores[i])) for i in rank(scores)[:k]]


def float64_unit_corpus(ids, rows, offsets):
    """A ``UnitCorpus`` that selects on float64 unit rows, given in stored order and grouped as
    ``unit_corpus`` groups them, and whose ``exact_rows`` hands back those same rows, passage after passage."""
    def exact_rows(passages):
        return np.vstack([rows[offsets[i] : offsets[i + 1]] for i in passages])

    return UnitCorpus(ids, rows[walk_rows(offsets)], offsets, exact_rows)


def table_top_k(query, unit, k):
    """``maxsim_top_k`` over a UnitCorpus's grouped table, each passage's rows gathered by position (the
    path re-rank takes), and the survivors scored on the corpus's ``exact_rows``."""
    positions = np.empty(len(unit.grouped_rows), dtype=np.int64)
    positions[walk_rows(unit.offsets)] = np.arange(len(positions))
    q_unit = normalize_rows(query)
    order, scores = scoring.maxsim_top_k(q_unit, unit.grouped_rows, positions, unit.offsets, k, unit.exact_rows)
    return [(unit.ids[i], float(s)) for i, s in zip(order, scores)]


def count_exact_passages(monkeypatch) -> list:
    """Patch ``scoring.maxsim_exact`` to record how many passages each call
    scores, in the returned list."""
    exact = scoring.maxsim_exact
    counts = []

    def counting(*args):
        scores = exact(*args)
        counts.append(scores.size)
        return scores

    monkeypatch.setattr(scoring, "maxsim_exact", counting)
    return counts


def corpus_with_copies(rng, n_passages=20, n_distinct=8, dim=5):
    """Passages drawn from a few distinct matrices, so many tie exactly."""
    distinct = [rng.normal(size=(int(rng.integers(1, 7)), dim)) for _ in range(n_distinct)]
    return {f"p{i:02d}": distinct[int(rng.integers(n_distinct))].copy() for i in range(n_passages)}


class TestBlockedTopK:
    """Re-rank (rows gathered from the unit-row table) and ``maxsim_top_k``
    over a table in row order score passages in row blocks and re-score only
    the near-top with ``maxsim_unit``; every ranking must equal the first k
    of the per-passage ranking, bit for bit, and so must the oracle's."""

    @pytest.mark.parametrize("k", [1, 4, 60, 75], ids=["k1", "k4", "k-all", "k-over-all"])
    @pytest.mark.parametrize("block", [3, 7, 1024], ids=["passages-longer-than-a-block", "straddling", "default"])
    def test_equals_the_head_of_the_per_passage_ranking(self, monkeypatch, block, k):
        monkeypatch.setattr("modir.scoring._MAXSIM_BLOCK", block)
        _, idx, query = small_index()
        starts, ends = idx.passage_offsets[:-1], idx.passage_offsets[1:]
        assert (ends - starts).max() > 3 and np.any(starts // 7 != (ends - 1) // 7)
        ids = list(idx.passage_ids)
        assert_same_ranking(exact_rerank(query, ids, idx, k=k), exact_rerank(query, ids, idx)[:k])
        params = SearchParams(n_probe=2, candidate_k=30, final_k=min(k, 30))
        candidates = [pid for pid, _ in approximate_candidates(query, idx, params)]
        assert_same_ranking(search(query, idx, params), exact_rerank(query, candidates, idx)[: params.final_k])
        unit = idx.unit_corpus()
        assert_same_ranking(brute_force_search(query, unit, k), per_passage_oracle(query, unit, k))
        assert_same_ranking(table_top_k(query, unit, k), per_passage_oracle(query, unit, k))

    @pytest.mark.filterwarnings("ignore::modir.index.DuplicateCentroidWarning")
    def test_duplicated_passages_tie_exactly_at_different_block_positions(self, monkeypatch):
        monkeypatch.setattr("modir.scoring._MAXSIM_BLOCK", 5)
        rng = np.random.default_rng(21)
        copy = rng.normal(size=(3, 4))
        corpus = {f"x{i:02d}": rng.normal(size=(int(rng.integers(1, 6)), 4)) for i in range(20)}
        corpus.update({"a": copy, "x05a": copy.copy(), "x13a": copy.copy()})  # early, middle and late rows
        idx = build_index(corpus, seed=0)
        unit = idx.unit_corpus()
        query = copy + 0.01 * rng.normal(size=copy.shape)
        ids = list(idx.passage_ids)
        for k in (1, 2, 3, 4):
            assert_same_ranking(exact_rerank(query, ids, idx, k=k), exact_rerank(query, ids, idx)[:k])
            assert_same_ranking(brute_force_search(query, unit, k), per_passage_oracle(query, unit, k))
            assert_same_ranking(table_top_k(query, unit, k), per_passage_oracle(query, unit, k))
        top = exact_rerank(query, ids, idx, k=3)
        assert [pid for pid, _ in top] == ["a", "x05a", "x13a"] and top[0][1] == top[1][1] == top[2][1]

    def test_copies_whose_blocked_scores_differ_still_tie(self):
        # Two copies of one passage tie exactly, but "p00" is blocked alone (the
        # 1,024-row "p01" does not fit beside it) and "p02" in a wider block.
        # With OpenBLAS 0.3.31 the wider matmul rounds "p02" up by 1-2 ulps, so
        # without the margin below the k-th blocked score k=1 keeps only "p02".
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 128))
        corpus = {"p00": a, "p01": rng.normal(size=(1024, 128)), "p02": a.copy()}
        corpus.update({f"p{i:02d}": rng.normal(size=(6, 128)) for i in range(3, 13)})
        query = rng.normal(size=(32, 128)) + 3 * a[0]
        idx = build_index(corpus, seed=0, centroid_count=16)
        unit = idx.unit_corpus()
        expect = per_passage_oracle(query, unit, 1)
        assert expect[0][0] == "p00"
        assert_same_ranking(brute_force_search(query, unit, 1), expect)
        assert_same_ranking(table_top_k(query, unit, 1), expect)
        assert_same_ranking(exact_rerank(query, idx.passage_ids, idx, k=1), expect)

    def test_blocked_scores_off_by_most_of_the_gap_still_rank_exactly(self, monkeypatch):
        # The same failure on any BLAS: the blocked scores of two exact copies
        # are pushed apart by 0.9 of maxsim_rounding_gap, within what the
        # margin allows for.
        blocked = scoring._blocked_maxsim

        def skewed(q_unit, table, offsets, rows):
            out = blocked(q_unit, table, offsets, rows)
            shift = 0.45 * scoring.maxsim_rounding_gap(*q_unit.shape)
            out[0] -= shift
            out[1] += shift
            return out

        monkeypatch.setattr(scoring, "_blocked_maxsim", skewed)
        rng = np.random.default_rng(6)
        copy = normalize_rows(rng.normal(size=(2, 3)))
        rows = np.vstack([copy, copy, normalize_rows(rng.normal(size=(2, 3)))])
        unit = float64_unit_corpus(["a", "b", "c"], rows, np.array([0, 2, 4, 6]))
        query = copy + 0.01 * rng.normal(size=copy.shape)
        expect = per_passage_oracle(query, unit, 1)
        assert expect[0][0] == "a"
        assert_same_ranking(table_top_k(query, unit, 1), expect)

    def test_float32_blocked_scores_off_by_most_of_the_gap_still_rank_exactly(self, monkeypatch):
        # re-rank's blocked scores come from the float32 table; push two exact copies apart by 0.9
        # of the float32 gap, and the exact ranking still comes back
        blocked = scoring._blocked_maxsim

        def skewed(q_unit, table, rows, offsets):
            assert table.dtype == np.float32
            out = blocked(q_unit, table, rows, offsets)
            shift = 0.45 * scoring.maxsim_rounding_gap(*q_unit.shape, np.float32)
            out[0] -= shift
            out[1] += shift
            return out

        rng = np.random.default_rng(6)
        copy = rng.normal(size=(2, 3))
        idx = build_index({"a": copy, "b": copy.copy(), "c": rng.normal(size=(2, 3))}, seed=0)
        query = copy + 0.01 * rng.normal(size=copy.shape)
        expect = per_passage_oracle(query, idx.unit_corpus(), 1)
        assert expect[0][0] == "a"
        monkeypatch.setattr(scoring, "_blocked_maxsim", skewed)
        assert_same_ranking(exact_rerank(query, ["c", "b", "a"], idx, k=1), expect)

    def test_a_tie_across_lengths_goes_to_the_lower_id(self):
        # Standard-basis rows make every cosine exact under any BLAS order, so both passages score exactly
        # 2.0. "a" comes after "b" in the length walk (3 rows against 2) but first in id order.
        e1, e2 = np.eye(2)
        unit = float64_unit_corpus(["a", "b"], np.array([e2, e1, e1, e1, e2]), np.array([0, 3, 5]))
        query = np.array([e1, e2])
        for k in (1, 2):
            expect = [("a", 2.0), ("b", 2.0)][:k]
            assert brute_force_search(query, unit, k) == expect
            assert table_top_k(query, unit, k) == expect

    def test_all_zero_rows(self):
        rng = np.random.default_rng(4)
        rows = normalize_rows(rng.normal(size=(12, 3)))
        rows[3:6] = 0.0  # passage "b" is all zeros
        rows[8] = 0.0  # and "d" has one zero row
        unit = float64_unit_corpus(["a", "b", "c", "d"], rows, np.array([0, 3, 6, 8, 12]))
        query = rng.normal(size=(3, 3))
        query[1] = 0.0
        for k in (1, 2, 4, 5):
            assert_same_ranking(brute_force_search(query, unit, k), per_passage_oracle(query, unit, k))
            assert_same_ranking(table_top_k(query, unit, k), per_passage_oracle(query, unit, k))
        assert dict(brute_force_search(query, unit, 4))["b"] == 0.0
        _, idx, query = small_index()
        query[0] = 0.0
        ids = list(idx.passage_ids)
        assert_same_ranking(exact_rerank(query, ids, idx, k=5), exact_rerank(query, ids, idx)[:5])

    def test_only_the_near_top_is_scored_again(self, monkeypatch):
        _, idx, query = small_index()
        scored = count_exact_passages(monkeypatch)
        exact_rerank(query, list(idx.passage_ids), idx, k=3)
        table_top_k(query, idx.unit_corpus(), 3)
        assert scored == [3, 3]  # three each: the scores are distinct

    def test_a_nan_query_row_sends_every_passage_to_the_exact_path(self, monkeypatch):
        # re-rank and the oracle refuse the query (check_query); maxsim_top_k itself still takes it
        _, idx, query = small_index()
        query[1] = np.nan
        unit = idx.unit_corpus()
        with pytest.raises(InvalidConfigError):
            exact_rerank(query, list(idx.passage_ids), idx, k=3)
        with pytest.raises(InvalidConfigError):
            brute_force_search(query, unit, 3)
        expect = per_passage_oracle(query, unit, 3)
        scored = count_exact_passages(monkeypatch)
        got = table_top_k(query, unit, 3)
        assert scored == [idx.passage_count] and all(np.isnan(s) for _, s in got)
        assert_same_ranking(got, expect)

    @pytest.mark.filterwarnings("ignore::modir.index.DuplicateCentroidWarning")
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 22), block=st.integers(1, 12))
    def test_random_corpora_with_copies(self, seed, k, block):
        rng = np.random.default_rng(seed)
        idx = build_index(corpus_with_copies(rng), seed=seed)
        query = rng.normal(size=(int(rng.integers(1, 5)), idx.dim))
        query[rng.random(query.shape[0]) < 0.2] = 0.0
        ids = list(idx.passage_ids)
        unit = idx.unit_corpus()
        params = SearchParams(n_probe=int(rng.integers(1, idx.centroid_count + 1)), candidate_k=22, final_k=k)
        candidates = [pid for pid, _ in approximate_candidates(query, idx, params)]
        with mock.patch("modir.scoring._MAXSIM_BLOCK", block):
            assert_same_ranking(exact_rerank(query, ids, idx, k=k), exact_rerank(query, ids, idx)[:k])
            assert_same_ranking(search(query, idx, params), exact_rerank(query, candidates, idx)[:k])
            assert_same_ranking(brute_force_search(query, unit, k), per_passage_oracle(query, unit, k))
            assert_same_ranking(table_top_k(query, unit, k), per_passage_oracle(query, unit, k))

    @pytest.mark.filterwarnings("ignore::modir.index.DuplicateCentroidWarning")
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), block=st.integers(1, 12), data=st.data())
    def test_unit_corpus_oracle_equals_the_dict_oracle(self, seed, block, data):
        # The dict path scores each passage alone with maxsim_score, the independent reference. Exact
        # copies of 1-6 rows each straddle blocks of 1-12 rows; some query rows are zero.
        rng = np.random.default_rng(seed)
        idx = build_index(corpus_with_copies(rng), seed=seed)
        k = data.draw(st.none() | st.integers(1, idx.passage_count))
        query = rng.normal(size=(int(rng.integers(1, 5)), idx.dim))
        query[rng.random(query.shape[0]) < 0.3] = 0.0
        unit = idx.unit_corpus()
        with mock.patch("modir.scoring._MAXSIM_BLOCK", block):
            got = brute_force_search(query, unit, k)
        assert_same_ranking(got, brute_force_search(query, idx.decompressed_corpus(), k))


class TestSerialization:
    def test_build_and_load_hold_no_other_per_embedding_array(self, tmp_path):
        _, idx, _ = small_index()
        assert idx.embedding_count not in (idx.passage_count, idx.passage_count + 1, idx.centroid_count)
        save_index(idx, tmp_path / "idx")
        for fresh in (idx, load_index(tmp_path / "idx")):
            assert per_embedding_attributes(fresh) == {"centroid_ids", "residual_codes"}

    def test_round_trip_preserves_search_results(self, tmp_path):
        _, idx, query = small_index()
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        params = SearchParams(n_probe=3, candidate_k=50, final_k=20)
        assert search(query, loaded, params) == search(query, idx, params)

    def test_round_trip_preserves_arrays(self, tmp_path):
        _, idx, _ = small_index()
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        np.testing.assert_array_equal(loaded.centroids, idx.centroids)
        np.testing.assert_array_equal(loaded.codec.cuts, idx.codec.cuts)
        np.testing.assert_array_equal(loaded.codec.reps, idx.codec.reps)
        np.testing.assert_array_equal(loaded.centroid_ids, idx.centroid_ids)
        assert idx.residual_codes.shape == (idx.embedding_count, -(-idx.dim // 4))
        np.testing.assert_array_equal(loaded.residual_codes, idx.residual_codes)
        np.testing.assert_array_equal(loaded.passage_offsets, idx.passage_offsets)
        assert loaded.passage_ids == idx.passage_ids
        np.testing.assert_array_equal(loaded.list_sizes, idx.list_sizes)
        for name in ("list_offsets", "member_passages", "positions"):
            np.testing.assert_array_equal(getattr(loaded.search_state, name), getattr(idx.search_state, name))

    @settings(max_examples=150, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 3), min_size=1, max_size=6),
        dim=st.integers(1, 4),
        centroid_count=st.none() | st.integers(1, 4),
        seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_every_index_built_loads_back_equal(self, lengths, dim, centroid_count, seed, data):
        # Magnitudes reach float32's largest value, the midpoint past it (the
        # smallest float64 that rounds to inf) and beyond. A corpus is refused
        # only with InvalidConfigError, and only when some value exceeds half
        # float32's largest: below that no residual or codec value can overflow.
        top = float(np.finfo(np.float32).max)
        beyond = 2.0**128 - 2.0**103
        special = st.sampled_from([0.0, 1.0, -1.0, top / 2, top, -top, np.nextafter(beyond, 0.0), beyond, -beyond, 1e39])
        value = special | st.floats(-1e39, 1e39) | st.floats(-4.0, 4.0)
        rows = data.draw(arrays(np.float64, (sum(lengths), dim), elements=value))
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        corpus = {f"p{i}": rows[offsets[i] : offsets[i + 1]] for i in range(len(lengths))}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", DuplicateCentroidWarning)
            try:
                idx = build_index(corpus, seed=seed, centroid_count=centroid_count)
            except InvalidConfigError:
                assert np.abs(rows).max() > top / 2
                return
            with tempfile.TemporaryDirectory() as tmp:
                save_index(idx, Path(tmp) / "idx")
                loaded = load_index(Path(tmp) / "idx")
        assert loaded.centroids.tobytes() == idx.centroids.tobytes()
        assert loaded.codec.cuts.tobytes() == idx.codec.cuts.tobytes()
        assert loaded.codec.reps.tobytes() == idx.codec.reps.tobytes()
        assert np.array_equal(loaded.centroid_ids, idx.centroid_ids)
        assert np.array_equal(loaded.residual_codes, idx.residual_codes)
        assert np.array_equal(loaded.passage_offsets, idx.passage_offsets)
        assert loaded.passage_ids == idx.passage_ids and loaded.seed == idx.seed

    def test_code_section_size_is_exact(self, tmp_path):
        _, idx, _ = small_index()
        save_index(idx, tmp_path / "idx")
        blob = (tmp_path / "idx" / "codes.bin").read_bytes()
        expected_bits = idx.embedding_count * idx.bits_per_embedding
        assert len(blob) == -(-expected_bits // 8)

    def test_explicit_string_ids_round_trip(self, tmp_path):
        corpus = {"doc/alpha": np.eye(3), "doc beta": np.ones((2, 3))}
        idx = build_index(corpus, seed=1)
        save_index(idx, tmp_path / "idx")
        assert load_index(tmp_path / "idx").passage_ids == idx.passage_ids

    def test_single_centroid_round_trip(self, tmp_path):
        # |C| = 1 stores zero id bits per embedding
        idx = build_index({"p": [[1.0, 2.0]]}, seed=0)
        assert idx.centroid_count == 1
        assert idx.bits_per_embedding == 4
        save_index(idx, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx")
        query = np.array([[1.0, 1.0]])
        params = SearchParams(n_probe=1, candidate_k=5, final_k=5)
        assert search(query, loaded, params) == search(query, idx, params)


    def test_failed_save_keeps_the_earlier_index(self, tmp_path, monkeypatch):
        _, idx, query = small_index()
        save_index(idx, tmp_path / "idx")
        before = {f.name: f.read_bytes() for f in (tmp_path / "idx").iterdir()}

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr("modir.index.pack_codes", fail)
        other = build_index({"only": np.eye(idx.dim)}, seed=0)
        for target in ("idx", "fresh"):
            with pytest.raises(OSError, match="disk full"):
                save_index(other, tmp_path / target)
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]  # no temporary directory, no "fresh"
        assert {f.name: f.read_bytes() for f in (tmp_path / "idx").iterdir()} == before
        params = SearchParams(n_probe=3, candidate_k=50, final_k=20)
        assert search(query, load_index(tmp_path / "idx"), params) == search(query, idx, params)

    def test_save_replaces_an_earlier_index(self, tmp_path):
        _, idx, _ = small_index()
        save_index(idx, tmp_path / "idx")
        save_index(build_index({"only": np.eye(idx.dim)}, seed=0), tmp_path / "idx")
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]
        assert load_index(tmp_path / "idx").passage_ids == ["only"]

    def test_save_refuses_a_directory_holding_other_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(InvalidConfigError, match="not an index directory"):
            save_index(small_index()[1], tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


@pytest.fixture(scope="module")
def saved_index_files(tmp_path_factory):
    """File name -> bytes of a small saved index with explicit passage ids."""
    directory = tmp_path_factory.mktemp("saved") / "idx"
    _, idx, _ = small_index()
    assert idx.passage_ids != [str(i) for i in range(idx.passage_count)]
    save_index(idx, directory)
    return {f.name: f.read_bytes() for f in directory.iterdir()}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(["meta.json", "centroids.f32", "codec.f32", "codes.bin", "invlists.bin", "passages.bin"]),
    data=st.data(),
)
def test_every_truncation_of_an_index_file_is_a_format_error(saved_index_files, name, data):
    cut = data.draw(st.integers(0, len(saved_index_files[name]) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, raw in saved_index_files.items():
            (Path(tmp) / file_name).write_bytes(raw[:cut] if file_name == name else raw)
        with pytest.raises(FormatError):
            load_index(tmp)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_single_byte_change_to_invlists_is_a_format_error(saved_index_files, data):
    raw = bytearray(saved_index_files["invlists.bin"])
    at = data.draw(st.integers(0, len(raw) - 1))
    raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, content in saved_index_files.items():
            (Path(tmp) / file_name).write_bytes(bytes(raw) if file_name == "invlists.bin" else content)
        with pytest.raises(FormatError, match="invlists.bin"):
            load_index(tmp)


def _edit_meta(raw, **fields):
    """meta.json with these fields set, written as save_index writes JSON."""
    return json.dumps(dict(json.loads(raw), **fields), sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _cut_last_byte(directory, name):
    path = directory / name
    path.write_bytes(path.read_bytes()[:-1])


def _first_list_gap_127(directory):
    path = directory / "invlists.bin"
    buf = bytearray(path.read_bytes())
    buf[4] = 127  # first varint: the first nonempty list's centroid id
    path.write_bytes(bytes(buf))


def _leave_out_last_list(directory):
    path = directory / "invlists.bin"
    buf = path.read_bytes()
    (n_lists,) = struct.unpack_from("<I", buf)
    assert buf[-1] < 0x80 and buf[-2] < 0x80  # the last list's gap and length are one byte each
    path.write_bytes(struct.pack("<I", n_lists - 1) + buf[4:-2])


def _last_id_byte_not_utf8(directory):
    path = directory / "passages.bin"
    path.write_bytes(path.read_bytes()[:-1] + b"\xff")


def _nan_first_float(directory, name):
    path = directory / name
    path.write_bytes(np.array([np.nan], dtype="<f4").tobytes() + path.read_bytes()[4:])


class TestLoadCorrupt:
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: _cut_last_byte(d, "centroids.f32"),
            lambda d: _cut_last_byte(d, "codec.f32"),
            lambda d: _cut_last_byte(d, "invlists.bin"),
            _first_list_gap_127,
            lambda d: _cut_last_byte(d, "codes.bin"),
            lambda d: _cut_last_byte(d, "passages.bin"),
            _leave_out_last_list,
            lambda d: _nan_first_float(d, "centroids.f32"),
            lambda d: _nan_first_float(d, "codec.f32"),
            _last_id_byte_not_utf8,
        ],
        ids=[
            "centroids-cut", "codec-cut", "invlists-cut", "invlists-first-gap-127",
            "codes-cut", "passages-cut", "invlists-list-left-out", "centroids-nan", "codec-nan",
            "passages-id-not-utf8",
        ],
    )
    def test_format_error_names_the_file(self, tmp_path, corrupt):
        _, idx, _ = small_index()
        # the gap of 127 names no centroid, and passages.bin ends in an explicit id
        assert idx.centroid_count < 127 and idx.passage_ids != [str(i) for i in range(idx.passage_count)]
        save_index(idx, tmp_path)
        corrupt(tmp_path)
        with pytest.raises(FormatError, match=r"\.(f32|bin)"):
            load_index(tmp_path)

    @pytest.mark.parametrize("name", INDEX_FILES)
    def test_a_byte_appended_to_any_file_names_it(self, tmp_path, name):
        _, idx, _ = small_index()
        save_index(idx, tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\x00")
        problem = {
            "meta.json": "does not end in a newline",
            "invlists.bin": "differs from the file that save_index writes for this index",
        }.get(name, "has 1 trailing bytes")
        with pytest.raises(FormatError, match=re.escape(f"{path} {problem}")):
            load_index(tmp_path)

    @pytest.mark.parametrize(
        "name,corrupt",
        [
            ("meta.json", lambda raw: _edit_meta(raw, bits_per_embedding=999)),
            ("meta.json", lambda raw: _edit_meta(raw, comment="extra")),
            ("invlists.bin", lambda raw: raw[:4] + bytes([0x80 | raw[4], 0x00]) + raw[5:]),
            ("codes.bin", lambda raw: raw[:-1] + bytes([raw[-1] | 1])),
        ],
        ids=["meta-bits-per-embedding-999", "meta-extra-key", "invlists-overlong-first-gap", "codes-padding-bit"],
    )
    def test_a_file_that_save_index_would_not_write_names_it(self, tmp_path, name, corrupt):
        idx = build_index(clustered_corpus(np.random.default_rng(14), 20, 3), seed=0, centroid_count=5)
        assert idx.embedding_count * idx.bits_per_embedding % 8 != 0  # codes.bin ends in padding bits
        save_index(idx, tmp_path)
        path = tmp_path / name
        raw = path.read_bytes()
        assert (tmp_path / "invlists.bin").read_bytes()[4] < 0x80  # the first gap is a one-byte varint
        path.write_bytes(corrupt(raw))
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_index(tmp_path)

    def test_meta_json_without_its_newline_rejected(self, tmp_path):
        _, idx, _ = small_index()
        save_index(idx, tmp_path)
        path = tmp_path / "meta.json"
        raw = path.read_bytes()
        assert raw.endswith(b"}\n") and raw.count(b"\n") == 1
        json.loads(raw[:-1])  # still valid JSON without the newline
        path.write_bytes(raw[:-1])
        with pytest.raises(FormatError, match=r"meta\.json does not end in a newline"):
            load_index(tmp_path)
        path.write_bytes(raw)
        assert load_index(tmp_path).passage_ids == idx.passage_ids

    def test_repeated_passage_id_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        save_index(build_index({f"p{i}": rng.normal(size=(3, 4)) for i in range(5)}, seed=0), tmp_path)
        path = tmp_path / "passages.bin"
        buf = path.read_bytes()
        assert buf.count(b"p1") == 1
        path.write_bytes(buf.replace(b"p1", b"p0"))
        with pytest.raises(FormatError, match="passages.bin"):
            load_index(tmp_path)

    def test_passage_ids_out_of_order_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        save_index(build_index({f"p{i}": rng.normal(size=(3, 4)) for i in range(5)}, seed=0), tmp_path)
        path = tmp_path / "passages.bin"
        buf = path.read_bytes()
        path.write_bytes(buf.replace(b"p1", b"p9"))  # p0, p9, p2, ...: unique, not ascending
        with pytest.raises(FormatError, match="passages.bin"):
            load_index(tmp_path)

    def test_implicit_ids_beyond_ten_passages_rejected(self, tmp_path):
        # decimal positions 0..10 are not in string order, so build_index never writes them implicitly
        rng = np.random.default_rng(17)
        idx = build_index({i: rng.normal(size=(2, 3)) for i in range(11)}, seed=0)
        assert idx.passage_ids[:3] == ["0", "1", "10"]
        save_index(idx, tmp_path)
        path = tmp_path / "passages.bin"
        buf = path.read_bytes()
        mode = 4 + 11  # u32 count, then eleven one-byte counts
        assert buf[mode] == 1
        path.write_bytes(buf[:mode] + b"\x00")
        with pytest.raises(FormatError, match="passages.bin"):
            load_index(tmp_path)

    def test_passage_without_embeddings_rejected(self, tmp_path):
        rng = np.random.default_rng(16)
        save_index(build_index({i: rng.normal(size=(3, 4)) for i in range(5)}, seed=0), tmp_path)
        path = tmp_path / "passages.bin"
        buf = path.read_bytes()
        assert buf[4:10] == bytes([3, 3, 3, 3, 3, 0])  # one-byte counts, then the implicit-id mode
        path.write_bytes(buf[:4] + bytes([0, 6]) + buf[6:])  # the same embedding total
        with pytest.raises(FormatError, match="passages.bin"):
            load_index(tmp_path)

    def test_centroid_id_beyond_count_rejected(self, tmp_path):
        idx = build_index(clustered_corpus(np.random.default_rng(14), 20, 4), seed=0, centroid_count=5)
        save_index(idx, tmp_path)
        path = tmp_path / "codes.bin"
        buf = bytearray(path.read_bytes())
        buf[0] |= 0xE0  # the first embedding's 3-bit centroid id becomes 7
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match="codes.bin"):
            load_index(tmp_path)
