import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from modir.errors import DimensionMismatchError, EmptyInputError, InvalidConfigError
from modir.scoring import (
    CLS_ID,
    MASK_ID,
    P_MARKER_ID,
    Q_MARKER_ID,
    SimilarityConfig,
    cosine,
    maxsim_score,
    maxsim_top_k,
    maxsim_unit,
    normalize_rows,
    pool_rows,
    pooled_score,
    prepare_passage,
    prepare_query,
    rank,
    score,
)

T1, T2 = 10, 11  # arbitrary text token ids


def cosine_oracle(u, v):
    """Pure-Python cosine, independent of the numpy implementation."""
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def maxsim_oracle(hq, hp):
    """Brute-force enumeration over all cosine pairs."""
    return sum(max(cosine_oracle(q, p) for p in hp) for q in hq)


class TestPrepareQuery:
    def test_short_query_padded_with_masks(self):
        seq = prepare_query([T1, T2], 6, "en")
        assert seq.token_ids == (CLS_ID, Q_MARKER_ID, T1, T2, MASK_ID, MASK_ID)
        assert seq.kind == "query"
        assert seq.language == "en"

    def test_empty_query_is_all_padding(self):
        seq = prepare_query([], 4, "en")
        assert seq.token_ids == (CLS_ID, Q_MARKER_ID, MASK_ID, MASK_ID)

    def test_long_query_truncated_to_n(self):
        tokens = list(range(100, 140))  # 40 text tokens
        seq = prepare_query(tokens, 32, "en")
        assert len(seq) == 32
        assert seq.token_ids[2:] == tuple(tokens[:30])  # 32 - 2 text slots, no masks
        assert MASK_ID not in seq.token_ids[2:]

    @pytest.mark.parametrize("n_tokens", [0, 1, 5, 29, 30, 31, 50])
    def test_length_is_always_exactly_n(self, n_tokens):
        seq = prepare_query(list(range(100, 100 + n_tokens)), 32, "xx")
        assert len(seq) == 32

    def test_n_below_three_rejected(self):
        with pytest.raises(InvalidConfigError):
            prepare_query([T1], 2, "en")


class TestPreparePassage:
    def test_no_truncation_below_m(self):
        seq = prepare_passage([T1, T2, 12], 256, "en")
        assert len(seq) == 5
        assert seq.token_ids[:2] == (CLS_ID, P_MARKER_ID)
        assert MASK_ID not in seq.token_ids

    def test_truncation_keeps_prefix(self):
        tokens = list(range(100, 400))  # 300 text tokens
        seq = prepare_passage(tokens, 256, "en")
        assert len(seq) == 256
        assert seq.token_ids[2:] == tuple(tokens[:254])

    def test_empty_passage_is_markers_only(self):
        seq = prepare_passage([], 8, "en")
        assert seq.token_ids == (CLS_ID, P_MARKER_ID)
        assert seq.kind == "passage"

    def test_m_below_three_rejected(self):
        with pytest.raises(InvalidConfigError):
            prepare_passage([T1], 2, "en")


class TestCosine:
    def test_identity(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector_convention(self):
        assert cosine([0.0, 0.0], [1.0, 0.0]) == 0.0
        assert cosine([1.0, 0.0], [0.0, 0.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u, v = rng.normal(size=(2, 5))
            assert cosine(u, v) == pytest.approx(cosine_oracle(u, v), abs=1e-12)
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12


class TestMaxsim:
    def test_single_identical_vector(self):
        assert maxsim_score([[1.0, 0.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_two_query_rows_one_passage_row(self):
        # oracle by hand: row 1 matches exactly (1), row 2 is orthogonal (0)
        assert maxsim_score([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]) == pytest.approx(1.0)

    def test_brute_force_over_four_pairs(self):
        hq = [[1.0, 0.0], [0.6, 0.8]]
        hp = [[0.0, 1.0], [1.0, 0.0]]
        expected = maxsim_oracle(hq, hp)
        assert expected == pytest.approx(1.8)
        assert maxsim_score(hq, hp) == pytest.approx(expected)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            hq = rng.normal(size=(rng.integers(1, 6), 4))
            hp = rng.normal(size=(rng.integers(1, 7), 4))
            assert maxsim_score(hq, hp) == pytest.approx(maxsim_oracle(hq, hp), abs=1e-10)

    def test_empty_passage_rejected(self):
        with pytest.raises(EmptyInputError):
            maxsim_score([[1.0, 0.0]], np.empty((0, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            maxsim_score([[1.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_empty_query_scores_zero(self):
        assert maxsim_score(np.empty((0, 2)), [[1.0, 0.0]]) == 0.0

    # -- properties ---------------------------------------------------------

    def test_self_score_equals_row_count(self):
        rng = np.random.default_rng(3)
        for rows in (1, 2, 5, 9):
            h = rng.normal(size=(rows, 6)) + 0.01  # keep rows nonzero
            assert maxsim_score(h, h) == pytest.approx(rows, abs=1e-9)

    def test_appending_passage_rows_never_decreases_score(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hq = rng.normal(size=(4, 5))
            hp = rng.normal(size=(6, 5))
            base = maxsim_score(hq, hp)
            extended = np.vstack([hp, rng.normal(size=(1, 5))])
            assert maxsim_score(hq, extended) >= base - 1e-12

    def test_invariant_to_passage_row_permutation(self):
        rng = np.random.default_rng(6)
        hq = rng.normal(size=(3, 4))
        hp = rng.normal(size=(8, 4))
        for _ in range(5):
            assert maxsim_score(hq, rng.permutation(hp)) == pytest.approx(maxsim_score(hq, hp))

    def test_query_row_permutation_preserves_sum(self):
        rng = np.random.default_rng(8)
        hq = rng.normal(size=(5, 4))
        hp = rng.normal(size=(6, 4))
        for _ in range(5):
            assert maxsim_score(rng.permutation(hq), hp) == pytest.approx(maxsim_score(hq, hp))

    def test_positive_row_scaling_leaves_score_unchanged(self):
        rng = np.random.default_rng(9)
        hq = rng.normal(size=(4, 5))
        hp = rng.normal(size=(5, 5))
        base = maxsim_score(hq, hp)
        hq2 = hq.copy()
        hq2[2] *= 37.5
        hp2 = hp.copy()
        hp2[0] *= 0.004
        assert maxsim_score(hq2, hp2) == pytest.approx(base, abs=1e-9)

    def test_score_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            hq = rng.normal(size=(3, 4))
            hp = rng.normal(size=(5, 4))
            s = maxsim_score(hq, hp)
            assert -3.0 - 1e-9 <= s <= 3.0 + 1e-9


class TestPooled:
    def test_identical_inputs_mean_pooling(self):
        h = [[1.0, 0.0], [0.0, 1.0]]
        assert pooled_score(h, h, "mean") == pytest.approx(1.0)

    def test_cls_pooling_uses_first_rows_only(self):
        hq = [[1.0, 0.0], [9.0, 9.0]]
        hp = [[1.0, 0.0], [-5.0, 2.0]]
        assert pooled_score(hq, hp, "cls") == pytest.approx(1.0)

    def test_mean_pooling_hand_computed(self):
        hq = [[1.0, 0.0], [0.0, 1.0]]
        hp = [[1.0, 0.0], [1.0, 0.0]]
        expected = cosine_oracle([0.5, 0.5], [1.0, 0.0])
        assert expected == pytest.approx(1.0 / math.sqrt(2.0))
        assert pooled_score(hq, hp, "mean") == pytest.approx(expected)

    def test_max_pooling_is_elementwise(self):
        hq = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert pool_rows(hq, "max").tolist() == [1.0, 3.0]

    def test_range(self):
        rng = np.random.default_rng(12)
        for pooling in ("mean", "max", "cls"):
            for _ in range(10):
                hq = rng.normal(size=(3, 4))
                hp = rng.normal(size=(4, 4))
                assert -1.0 - 1e-12 <= pooled_score(hq, hp, pooling) <= 1.0 + 1e-12

    def test_dispatch_through_config(self):
        hq = [[1.0, 0.0], [0.6, 0.8]]
        hp = [[0.0, 1.0], [1.0, 0.0]]
        assert score(hq, hp, SimilarityConfig(mode="maxsim")) == maxsim_score(hq, hp)
        assert score(hq, hp, SimilarityConfig(mode="pooled", pooling="cls")) == pooled_score(hq, hp, "cls")

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            SimilarityConfig(mode="nope")
        with pytest.raises(InvalidConfigError):
            SimilarityConfig(mode="pooled", pooling="median")


class TestRank:
    def test_ties_keep_input_order(self):
        assert rank([0.5, 2.0, 0.5, 2.0, 1.0]).tolist() == [1, 3, 4, 0, 2]

    def test_k_truncates_and_none_returns_everything(self):
        scores = [3.0, 1.0, 2.0]
        assert rank(scores, 2).tolist() == [0, 2]
        assert rank(scores, None).tolist() == [0, 2, 1]

    def test_ranks_each_row_of_a_matrix(self):
        assert rank([[1.0, 1.0, 2.0], [0.0, 3.0, 3.0]], 2).tolist() == [[2, 0], [1, 2]]

    @pytest.mark.parametrize("k", [0, -1, -3])
    def test_cutoff_below_one_is_rejected(self, k):
        for scores in ([3.0, 1.0, 2.0], [[3.0, 1.0], [1.0, 2.0]], []):
            with pytest.raises(InvalidConfigError, match=f"cutoff k must be None \\(all\\) or >= 1, got {k}"):
                rank(scores, k)

    def test_unequal_survivors_per_row_still_rank_each_row(self):
        # k=1 leaves two tied entries in row 0 and one in row 1
        assert rank([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0]], 1).tolist() == [[0], [1]]

    @settings(max_examples=300, deadline=None)
    @given(
        scores=arrays(
            np.float64,
            st.one_of(st.tuples(st.integers(1, 12)), st.tuples(st.integers(1, 4), st.integers(1, 12))),
            elements=st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.nan]),
        ),
        data=st.data(),
    )
    def test_equals_the_head_of_a_stable_descending_argsort(self, scores, data):
        # small integers tie heavily; NaN can leave fewer than k entries at or above the cut
        k = data.draw(st.integers(1, scores.shape[-1] + 1))
        expect = np.argsort(-scores, axis=-1, kind="stable")[..., :k]
        got = rank(scores, k)
        assert got.shape == expect.shape and np.array_equal(got, expect)


class TestMaxsimTopK:
    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_is_rejected_before_any_passage_is_scored(self, k):
        q_unit = normalize_rows(np.eye(2))
        table = normalize_rows(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        with mock.patch("modir.scoring._blocked_maxsim", side_effect=AssertionError("blocked pass ran")):
            with mock.patch("modir.scoring.maxsim_unit", side_effect=AssertionError("passage scored")):
                with pytest.raises(InvalidConfigError, match=f"got {k}"):
                    maxsim_top_k(q_unit, table, np.array([0, 1, 2, 3]), k)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_the_head_of_the_per_passage_ranking(self, data):
        # Passages are drawn from a few distinct matrices, so exact ties are
        # common; values include zeros, and a query row may be NaN.
        dim = data.draw(st.integers(1, 6))
        value = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-2.0, 2.0))
        matrix = arrays(np.float64, st.tuples(st.integers(1, 5), st.just(dim)), elements=value)
        distinct = data.draw(st.lists(matrix, min_size=1, max_size=5))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=20))
        passages = [normalize_rows(distinct[i]) for i in picks]
        query_shape = st.tuples(st.integers(1, 4), st.just(dim))
        query = data.draw(arrays(np.float64, query_shape, elements=value | st.just(np.nan)))
        k = data.draw(st.integers(1, len(passages) + 2))
        block = data.draw(st.integers(1, 8))
        q_unit = normalize_rows(query)
        offsets = np.concatenate(([0], np.cumsum([p.shape[0] for p in passages])))
        table = np.vstack(passages)
        if data.draw(st.booleans()):  # rows gathered from a shuffled table by position
            rows = np.random.default_rng(len(picks)).permutation(table.shape[0])
            shuffled = np.empty_like(table)
            shuffled[rows] = table
            table = shuffled
            passages = [table[rows[offsets[i] : offsets[i + 1]]] for i in range(len(passages))]
        else:
            rows = None
        scores = np.array([maxsim_unit(q_unit, p) for p in passages])
        expect = rank(scores)[:k]
        with mock.patch("modir.scoring._MAXSIM_BLOCK", block):
            order, got = maxsim_top_k(q_unit, table, offsets, k, rows=rows)
        assert np.array_equal(order, expect)
        assert got.tobytes() == scores[expect].tobytes()
