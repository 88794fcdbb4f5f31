import struct

import numpy as np
import pytest

from modir.errors import (
    DimensionMismatchError,
    EmptyInputError,
    FormatError,
    InvalidConfigError,
    UnknownPassageError,
)
from modir.evaluation import brute_force_search
from modir.index import (
    DuplicateCentroidWarning,
    SearchParams,
    approximate_candidates,
    bits_per_embedding,
    build_index,
    centroid_count_for,
    exact_rerank,
    fit_codec,
    id_bit_width,
    load_index,
    nearest_centroid_ids,
    pack_codes,
    save_index,
    search,
    select_centroids,
    unpack_codes,
)
from modir.scoring import maxsim_score


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
        sample = [rng.normal(size=(10, 4)), rng.normal(size=(6, 4))]
        cents = select_centroids(sample, total_estimate=1, seed=1)
        assert cents.shape == (1, 4)
        np.testing.assert_allclose(cents[0], np.vstack(sample).mean(axis=0), atol=1e-12)

    def test_recovers_separated_cluster_means(self):
        rng = np.random.default_rng(2)
        true_means = np.array([[10.0, 0.0], [-10.0, 0.0], [0.0, 10.0], [0.0, -10.0]])
        points = np.vstack([m + 0.01 * rng.normal(size=(50, 2)) for m in true_means])
        cents = select_centroids([points], total_estimate=16, seed=3)
        assert cents.shape == (4, 2)
        # each true mean recovered by some centroid
        empirical = np.array([points[i * 50 : (i + 1) * 50].mean(axis=0) for i in range(4)])
        for mean in empirical:
            best = np.min(np.linalg.norm(cents - mean, axis=1))
            assert best < 1e-6

    def test_duplicates_with_warning_when_sample_small(self):
        sample = [np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])]
        with pytest.warns(DuplicateCentroidWarning):
            cents = select_centroids(sample, total_estimate=64, seed=0)
        assert cents.shape == (8, 2)
        assert np.unique(cents, axis=0).shape[0] == 3

    def test_empty_sample_rejected(self):
        with pytest.raises(EmptyInputError):
            select_centroids([], total_estimate=4, seed=0)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        sample = [rng.normal(size=(100, 3))]
        a = select_centroids(sample, total_estimate=64, seed=9)
        b = select_centroids(sample, total_estimate=64, seed=9)
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


class TestBitPacking:
    @pytest.mark.parametrize("n,dim,c_count", [(1, 4, 1), (5, 3, 2), (17, 8, 128), (10, 128, 2**18)])
    def test_round_trip_and_exact_size(self, n, dim, c_count):
        rng = np.random.default_rng(n)
        id_bits = id_bit_width(c_count)
        ids = rng.integers(0, c_count, size=n)
        codes = rng.integers(0, 4, size=(n, dim)).astype(np.uint8)
        blob = pack_codes(ids, codes, id_bits)
        expected_bits = n * bits_per_embedding(dim, c_count)
        assert len(blob) == -(-expected_bits // 8)  # ceil
        back_ids, back_codes = unpack_codes(blob, n, dim, id_bits)
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_array_equal(back_codes, codes)

    def test_headline_bit_arithmetic(self):
        assert bits_per_embedding(128, 2**18) == 274
        assert 2048 / bits_per_embedding(128, 2**18) == pytest.approx(7.47, abs=0.01)


class TestBuildIndex:
    def test_single_vector_corpus(self):
        idx = build_index({"p": [[1.0, 2.0, 3.0]]}, seed=0)
        assert idx.centroid_count == 1
        np.testing.assert_array_equal(idx.list_offsets, [0, 1])
        assert idx.bits_per_embedding == 2 * 3 + 0

    def test_inverted_lists_partition_embeddings(self):
        rng = np.random.default_rng(10)
        corpus = clustered_corpus(rng, 100, 8)
        idx = build_index(corpus, seed=1)
        assert idx.list_offsets.shape == (idx.centroid_count + 1,)
        assert idx.list_offsets[-1] == idx.embedding_count
        np.testing.assert_array_equal(np.sort(idx.list_members), np.arange(idx.embedding_count))

    def test_list_membership_matches_nearest_centroid(self):
        rng = np.random.default_rng(11)
        corpus = clustered_corpus(rng, 40, 6)
        idx = build_index(corpus, seed=2)
        flat = np.vstack([np.asarray(corpus[k], dtype=np.float64) for k in sorted(corpus, key=str)])
        expected = nearest_centroid_ids(flat, idx.centroids)
        np.testing.assert_array_equal(idx.centroid_ids, expected)
        emb_passage = np.repeat(np.arange(idx.passage_count), np.diff(idx.passage_offsets))
        np.testing.assert_array_equal(idx.member_passages, emb_passage[idx.list_members])
        for cid in range(idx.centroid_count):
            members = idx.list_members[idx.list_offsets[cid] : idx.list_offsets[cid + 1]]
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

    def test_passage_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_index({"a": np.ones((2, 4)), "b": np.ones((2, 3))}, seed=0)


def small_index(seed=13, n_passages=60, dim=6):
    rng = np.random.default_rng(seed)
    corpus = clustered_corpus(rng, n_passages, dim)
    idx = build_index(corpus, seed=seed)
    query = rng.normal(size=(4, dim))
    return corpus, idx, query


class TestApproximate:
    def test_full_probe_matches_exact_on_fetched(self):
        _, idx, query = small_index()
        params = SearchParams(n_probe=idx.centroid_count, candidate_k=10_000, final_k=10)
        approx = dict(approximate_candidates(query, idx, params))
        assert len(approx) == idx.passage_count  # full probe fetches everyone
        exact = dict(exact_rerank(query, list(approx), idx))
        for pid, a in approx.items():
            assert a == pytest.approx(exact[pid], abs=1e-9)

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

    def test_first_query_fills_only_probed_lists(self):
        _, idx, query = small_index()
        approximate_candidates(query, idx, SearchParams(n_probe=1))
        assert 1 <= idx._filled.sum() <= query.shape[0] < idx.centroid_count

    def test_candidate_k_truncates_with_id_tiebreak(self):
        _, idx, query = small_index()
        full = approximate_candidates(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=10_000, final_k=1))
        top5 = approximate_candidates(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=5, final_k=1))
        assert top5 == full[:5]
        scores = [s for _, s in full]
        assert scores == sorted(scores, reverse=True)

    def test_query_dim_mismatch(self):
        _, idx, _ = small_index()
        with pytest.raises(DimensionMismatchError):
            approximate_candidates(np.zeros((2, idx.dim + 1)), idx, SearchParams(n_probe=1))

    def test_nprobe_above_centroid_count_rejected(self):
        _, idx, query = small_index()
        with pytest.raises(InvalidConfigError):
            approximate_candidates(query, idx, SearchParams(n_probe=idx.centroid_count + 1))


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

    def test_final_k_larger_than_corpus_returns_all_without_padding(self):
        _, idx, query = small_index(n_passages=7)
        out = search(query, idx, SearchParams(n_probe=idx.centroid_count, candidate_k=100, final_k=100))
        assert len(out) == 7


class TestSerialization:
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
        np.testing.assert_array_equal(loaded.residual_codes, idx.residual_codes)
        np.testing.assert_array_equal(loaded.passage_offsets, idx.passage_offsets)
        assert loaded.passage_ids == idx.passage_ids
        np.testing.assert_array_equal(loaded.list_offsets, idx.list_offsets)
        np.testing.assert_array_equal(loaded.list_members, idx.list_members)
        np.testing.assert_array_equal(loaded.member_passages, idx.member_passages)

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
        ],
        ids=[
            "centroids-cut", "codec-cut", "invlists-cut", "invlists-first-gap-127",
            "codes-cut", "passages-cut", "invlists-list-left-out",
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

    def test_centroid_id_beyond_count_rejected(self, tmp_path):
        idx = build_index(clustered_corpus(np.random.default_rng(14), 20, 4), seed=0, centroid_count=5)
        save_index(idx, tmp_path)
        path = tmp_path / "codes.bin"
        buf = bytearray(path.read_bytes())
        buf[0] |= 0xE0  # the first embedding's 3-bit centroid id becomes 7
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError, match="codes.bin"):
            load_index(tmp_path)
