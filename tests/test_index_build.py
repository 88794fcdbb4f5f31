"""The index build's in-place hot paths against plain reference versions.

The references below are the straightforward forms the build used before
its distance, k-means++, Lloyd, assignment and residual-encoding steps were
rewritten to run in place: k-means++ seeding by direct squared differences,
Lloyd means by one boolean mask per cluster over one whole distance matrix,
the distance expression in one line, and assignment by the argmin of the
full clipped squared distance, with a fresh distance matrix per row block.
The build ranks centroids by ``index._centroid_scores``, ``|c|^2 - 2 x.c``
alone, so the references are also the independent check on that shortcut.
The build must give the same bits (``np.array_equal``), so index bytes do
not depend on which form built them.
"""

import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modir import index
from modir.index import ResidualCodec, build_index, fit_codec, nearest_centroid_ids, select_centroids

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import bench_gen  # noqa: E402


def ref_kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def ref_select_centroids(points, k, seed, max_iter=25, tol=1e-6):
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    if k >= n:
        reps = -(-k // n)  # ceil
        return np.tile(points, (reps, 1))[:k]
    centroids = ref_kmeans_pp_init(points, k, rng)
    for _ in range(max_iter):
        assign = ref_nearest_in_one_product(points, centroids)
        new = centroids.copy()  # empty clusters keep their previous centroid
        for j in np.unique(assign):
            new[j] = points[assign == j].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new - centroids, axis=1)))
        centroids = new
        if shift <= tol:
            break
    return centroids


def ref_squared_distances(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    d2 = (x * x).sum(axis=1)[:, None] - 2.0 * (x @ c.T) + (c * c).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def ref_nearest_in_one_product(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid from one whole distance matrix over the distinct
    centroids: ties go to the lowest id among equal centroids."""
    uniq, first = np.unique(np.asarray(centroids, dtype=np.float64), axis=0, return_index=True)
    order = np.argsort(first, kind="stable")
    return first[order][np.argmin(ref_squared_distances(vectors, uniq[order]), axis=1)]


def ref_nearest_centroid_ids(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    vectors = np.asarray(vectors, dtype=np.float64)
    distinct = np.unique(np.asarray(centroids, dtype=np.float64), axis=0).shape[0]
    # near-equal row blocks of at most 1,000,000 // distinct centroids rows
    count = max(1, -(-vectors.shape[0] // max(1, 1_000_000 // distinct)))
    return np.concatenate([ref_nearest_in_one_product(block, centroids) for block in np.array_split(vectors, count)])


def ref_build_arrays(corpus, seed, sample_passages=256):
    """build_index's arrays, from the references and one whole-corpus encode."""
    keys = sorted(corpus, key=str)
    matrices = [np.asarray(corpus[key], dtype=np.float64) for key in keys]
    offsets = np.concatenate(([0], np.cumsum([m.shape[0] for m in matrices])))
    all_emb = np.vstack(matrices)
    sample_rng = np.random.default_rng((seed, 0))
    n_sample = min(len(keys), sample_passages)
    sample_idx = np.sort(sample_rng.choice(len(keys), size=n_sample, replace=False))
    sample_rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in sample_idx])
    k = index.centroid_count_for(int(offsets[-1]))
    centroids = ref_select_centroids(all_emb[sample_rows], k, (seed, 1)).astype(np.float32)
    assignments = ref_nearest_centroid_ids(all_emb, centroids)
    sample_residuals = all_emb[sample_rows] - centroids.astype(np.float64)[assignments[sample_rows]]
    codec64 = fit_codec(sample_residuals)
    codec = ResidualCodec(cuts=codec64.cuts.astype(np.float32), reps=codec64.reps.astype(np.float32))
    residual_codes = codec.encode(all_emb - centroids.astype(np.float64)[assignments])
    return centroids, codec, assignments, residual_codes


def duplicated_points(rng, distinct, n, dim):
    """n rows drawn from ``distinct`` normal rows, every one of them used."""
    pool = rng.standard_normal((distinct, dim))
    picks = np.concatenate([np.arange(distinct), rng.integers(distinct, size=n - distinct)])
    return pool[rng.permutation(picks)]


def select_quietly(points, k, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", index.DuplicateCentroidWarning)
        return select_centroids(points, k, seed)


def assert_same_arrays(built, ref):
    centroids, codec, assignments, residual_codes = ref
    assert np.array_equal(built.centroids, centroids)
    assert np.array_equal(built.codec.cuts, codec.cuts) and np.array_equal(built.codec.reps, codec.reps)
    assert np.array_equal(built.centroid_ids, assignments)
    assert np.array_equal(built.residual_codes, residual_codes)


class TestBlockedScoresKeepBits:
    """The premise of ``nearest_centroid_ids``' blocked ``_centroid_scores``,
    ``|c|^2 - 2 x.c`` as one product with the centroids scaled by -2 and one
    add, at the shapes a build uses: each row of a row block's scores has
    the bits of the same row of the whole product, for every block of 32
    rows or more (smaller blocks can differ, and nothing is asserted for
    them), and scaling the centroids by -2 gives the bits of scaling the
    product. A numpy or BLAS change that breaks this fails here, not as
    index bytes that no longer match."""

    @pytest.mark.parametrize("dim", [4, 6, 128])
    @pytest.mark.parametrize("k", [64, 256, 512, 1024])
    def test_each_row_of_a_block_equals_the_whole_product(self, k, dim):
        rng = np.random.default_rng(k * 1000 + dim + 1)
        cap = index._DISTANCE_FLOATS // k
        x, c = rng.standard_normal((cap + 7, dim)), rng.standard_normal((k, dim))
        cc, scaled = (c * c).sum(axis=1), -2.0 * c
        assert np.array_equal(x @ scaled.T, -2.0 * (x @ c.T))
        whole = index._centroid_scores(x, scaled, cc)
        assert np.array_equal(whole, x @ scaled.T + cc)
        buf = np.empty((cap, k))
        heights = {*range(32, 65), 100, 127, 128, 129, 255, 256, 257, 1000, 2047, cap // 2, cap // 2 + 1, cap - 1, cap}
        for height in sorted(h for h in heights if 32 <= h <= cap):
            for lo in (0, 7):
                got = index._centroid_scores(x[lo : lo + height], scaled, cc, out=buf[:height])
                assert np.array_equal(got, whole[lo : lo + height]), (height, lo)


class TestSelectCentroidsReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_duplicated_points_fewer_distinct_than_k(self, seed):
        # once every distinct row is a center, the reference's distances are all
        # exactly 0 and it draws uniformly; rounding noise there changes the draws
        rng = np.random.default_rng((seed, 99))
        distinct = int(rng.integers(2, 9))
        k = int(rng.integers(distinct + 1, 3 * distinct))
        points = duplicated_points(rng, distinct, k + int(rng.integers(1, 30)), int(rng.integers(2, 10)))
        got = select_quietly(points, k, seed)
        expect = ref_select_centroids(points, k, seed)
        assert np.array_equal(got, expect)
        sizes = np.bincount(ref_nearest_centroid_ids(points, expect), minlength=k)
        assert (sizes == 0).any()  # duplicate centers leave clusters empty

    @pytest.mark.parametrize("seed", range(12))
    def test_separated_clusters(self, seed):
        rng = np.random.default_rng((seed, 7))
        centers = 5.0 * rng.standard_normal((6, 8))
        points = centers[rng.integers(6, size=300)] + 0.3 * rng.standard_normal((300, 8))
        k = int(rng.integers(2, 24))
        assert np.array_equal(select_quietly(points, k, seed), ref_select_centroids(points, k, seed))

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("extra", [0, 1, 9])
    def test_k_at_or_above_n_tiles_the_points(self, n, extra):
        points = np.random.default_rng(n).standard_normal((n, 3))
        got = select_quietly(points, n + extra, 5)
        assert np.array_equal(got, ref_select_centroids(points, n + extra, 5))

    @pytest.mark.parametrize("seed", range(5))
    def test_single_centroid(self, seed):
        points = np.random.default_rng(seed).standard_normal((50, 4))
        got = select_quietly(points, 1, seed)
        assert np.array_equal(got, ref_select_centroids(points, 1, seed))

    def test_signed_zeros(self):
        # a cluster of -0.0 coordinates: add.at and mean both start from +0.0
        points = np.array([[-0.0, 1.0], [-0.0, 1.0], [-0.0, 1.5], [4.0, -0.0], [4.5, -0.0], [9.0, 9.0]])
        for seed in range(10):
            got = select_quietly(points, 3, seed)
            expect = ref_select_centroids(points, 3, seed)
            assert np.array_equal(got, expect) and np.array_equal(np.signbit(got), np.signbit(expect))

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), distinct=st.integers(1, 10), extra=st.integers(0, 30),
           k=st.integers(1, 40), dim=st.integers(1, 6))
    def test_random_duplicated_samples(self, seed, distinct, extra, k, dim):
        points = duplicated_points(np.random.default_rng(seed), distinct, distinct + extra, dim)
        assert np.array_equal(select_quietly(points, k, seed), ref_select_centroids(points, k, seed))


class TestKmeansPPClip:
    def test_near_copies_far_from_the_origin_draw_from_nonnegative_distances(self):
        # 1e8 from the origin, the expanded squared distance of two points 1e-3
        # apart can round below zero; unclipped, it is a negative draw probability
        rng = np.random.default_rng(1)
        base = 1e8 * rng.normal(size=(16, 3))
        points = np.concatenate([base, base + 1e-3 * rng.normal(size=(16, 3))])
        xx = (points * points).sum(axis=1)
        assert (index._centroid_scores(points, -2.0 * points, xx) + xx[:, None] < 0.0).any()
        for seed in range(5):
            got = select_centroids(points, 8, seed)
            assert got.shape == (8, 3) and np.isfinite(got).all()


class TestMultiBlockReference:
    """Lloyd samples and corpora that span three or more distance blocks
    give the bits of the whole-matrix references."""

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_select_centroids_over_several_blocks(self, duplicates):
        # 512 centroids allow blocks of 1,953 rows: the 6,000-row sample takes 4
        rng = np.random.default_rng(31)
        points = duplicated_points(rng, 400, 6000, 6) if duplicates else rng.standard_normal((6000, 6))
        assert len(index._row_blocks(6000, 512)) == 4
        assert np.array_equal(select_quietly(points, 512, 9), ref_select_centroids(points, 512, 9))

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_build_over_several_blocks(self, duplicates):
        # 300 passages of 64 rows make 256 centroids and blocks of at most 3,906 rows:
        # the 16,384-row sample and the 19,200-row assignment take 5 blocks each
        rng = np.random.default_rng(32)
        n = 300 * 64
        rows = duplicated_points(rng, 100, n, 4) if duplicates else rng.standard_normal((n, 4))
        corpus = {f"p{i:03d}": rows[64 * i : 64 * (i + 1)] for i in range(300)}
        assert index.centroid_count_for(n) == 256
        assert len(index._row_blocks(256 * 64, 256)) == len(index._row_blocks(n, 256)) == 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", index.DuplicateCentroidWarning)
            assert_same_arrays(build_index(corpus, seed=5), ref_build_arrays(corpus, 5))


def traced_peak(call, *args, **kwargs) -> int:
    """Peak bytes that ``tracemalloc`` sees while ``call`` runs."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDistanceBlocksBoundMemory:
    """The build holds a few distance blocks (``_DISTANCE_FLOATS`` float64s,
    8 MB), not a (rows x centroids) matrix."""

    BLOCK = 8 * index._DISTANCE_FLOATS

    def test_lloyd_holds_a_few_blocks(self):
        # the whole 8,000 x 512 matrix is 32.8 MB; a blocked Lloyd peaks near 25 MB in all
        sample = np.random.default_rng(5).standard_normal((8000, 128))
        peak = traced_peak(select_centroids, sample, 512, 3)
        assert peak < 4 * self.BLOCK, f"select_centroids peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("blocks", [2, 3.5, 6])
    def test_assignment_holds_a_few_blocks(self, blocks):
        # about 13 MB in all: one 8 MB distance block and the block's float64 rows
        rng = np.random.default_rng(6)
        centroids = rng.standard_normal((512, 128)).astype(np.float32)
        vectors = rng.standard_normal((int(blocks * (index._DISTANCE_FLOATS // 512)), 128)).astype(np.float32)
        peak = traced_peak(nearest_centroid_ids, vectors, centroids)
        assert peak < 2 * self.BLOCK, f"nearest_centroid_ids peaked at {peak / 1e6:.1f} MB"


class BlockSpy:
    """A row source that records the shape of each block asked of it."""

    def __init__(self, rows):
        self.rows, self.shape, self.blocks = rows, rows.shape, []

    def __getitem__(self, key):
        out = self.rows[key]
        self.blocks.append(out.shape)
        return out


class TestNearestCentroidReference:
    def test_exactly_tied_and_duplicate_centroids(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((30, 4))
        e = np.array([0.5, 0.0, 0.0, 0.0])
        centroids = np.vstack([points[:5] + e, points[:5] - e, points[:5] + e, points[5:8]])  # equidistant pairs
        got = nearest_centroid_ids(points, centroids)
        assert np.array_equal(got, ref_nearest_centroid_ids(points, centroids))
        assert not np.isin(got, np.arange(10, 15)).any()  # duplicates map to the lowest id

    def test_near_equal_row_blocks(self):
        # 4,000 distinct centroids allow blocks of 250 rows: 2,600 rows take 11 blocks
        # of 236-237 rows, none a short remainder
        rng = np.random.default_rng(4)
        centroids = rng.standard_normal((4000, 6)).astype(np.float32)
        vectors = np.vstack([rng.standard_normal((2100, 6)), centroids[:500]])
        source = BlockSpy(vectors)
        got = nearest_centroid_ids(source, centroids)
        blocks = source.blocks
        assert len(blocks) == 11 and blocks[0] == (237, 6) and {b[0] for b in blocks} == {236, 237}
        assert sum(b[0] for b in blocks) == 2600
        assert np.array_equal(got, ref_nearest_centroid_ids(vectors, centroids))
        assert np.array_equal(got[2100:], np.arange(500))

    @pytest.mark.parametrize("rows", [0, 1, 5, 975, 976, 977, 1953, 2929, 100_000])
    @pytest.mark.parametrize("centroids", [1, 1024, 2_000_000])
    def test_row_blocks_cover_the_rows_in_near_equal_blocks(self, rows, centroids):
        blocks = index._row_blocks(rows, centroids)
        cap = max(1, index._DISTANCE_FLOATS // centroids)
        heights = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == rows
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == max(1, -(-rows // cap)) and max(heights) == heights[0] <= cap
        assert max(heights) - min(heights) <= 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), k=st.integers(1, 20), distinct=st.integers(1, 20))
    def test_random_centroids_with_copies(self, seed, n, k, distinct):
        rng = np.random.default_rng(seed)
        pool = rng.standard_normal((distinct, 3)).astype(np.float32)
        centroids = pool[rng.integers(distinct, size=k)]
        vectors = np.vstack([rng.standard_normal((n, 3)), centroids.astype(np.float64)])
        assert np.array_equal(nearest_centroid_ids(vectors, centroids), ref_nearest_centroid_ids(vectors, centroids))


def clustered(rng, n_passages, dim, max_terms=9):
    return {
        f"p{i:03d}": rng.normal(size=dim) + 0.2 * rng.normal(size=(int(rng.integers(1, max_terms + 1)), dim))
        for i in range(n_passages)
    }


class TestBuildReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_build_arrays_equal_the_reference(self, seed):
        corpus = clustered(np.random.default_rng(seed), 80, 7)
        assert_same_arrays(build_index(corpus, seed=seed), ref_build_arrays(corpus, seed))

    @pytest.mark.parametrize("block", [1, 5, 16, 37])
    def test_residual_codes_across_encode_chunk_edges(self, monkeypatch, block):
        corpus = clustered(np.random.default_rng(block), 30, 5)
        whole = build_index(corpus, seed=3)
        monkeypatch.setattr(index, "_UNIT_BLOCK", block)
        chunked = build_index(corpus, seed=3)
        assert chunked.embedding_count > 2 * block
        assert np.array_equal(chunked.residual_codes, whole.residual_codes)
        assert_same_arrays(chunked, ref_build_arrays(corpus, 3))

    @pytest.mark.parametrize("seed", [7, 23])
    def test_overlapping_topics(self, seed):
        # the benchmark's corpus shape at small scale: 128-d unit rows on 64 topics
        # in 8 groups, with near-ties that normal draws rarely make
        spec = bench_gen.RetrievalSpec(passages=1500, min_terms=4, max_terms=12, topics=64, topic_groups=8, mix=0.3)
        rows, offsets, _ = bench_gen.retrieval_corpus(spec, seed)
        ids = bench_gen.passage_ids(spec.passages)
        corpus = {pid: rows[offsets[i] : offsets[i + 1]] for i, pid in enumerate(ids)}
        assert_same_arrays(build_index(corpus, seed=seed), ref_build_arrays(corpus, seed))

    def test_duplicate_rows_in_the_corpus(self):
        rng = np.random.default_rng(8)
        pool = rng.standard_normal((5, 4))
        corpus = {f"p{i}": pool[rng.integers(5, size=int(rng.integers(1, 6)))] for i in range(20)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", index.DuplicateCentroidWarning)
            built = build_index(corpus, seed=2)
            assert_same_arrays(built, ref_build_arrays(corpus, 2))
