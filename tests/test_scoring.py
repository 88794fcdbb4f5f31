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
    _blocked_maxsim,
    _length_chunks,
    maxsim_exact,
    maxsim_rounding_gap,
    maxsim_score,
    maxsim_top_k,
    maxsim_unit,
    normalize_rows,
    prepare_passage,
    prepare_query,
    rank,
    walk_rows,
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

    def test_m_below_three_rejected(self):
        with pytest.raises(InvalidConfigError):
            prepare_passage([T1], 2, "en")


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

    @pytest.mark.parametrize(
        "hq,hp,error,text",
        [
            ([1.0, 0.0], [[1.0, 0.0]], DimensionMismatchError, "expected 2-d matrices, got shapes (2,) and (1, 2)"),
            ([[1.0, 0.0]], [1.0, 0.0], DimensionMismatchError, "expected 2-d matrices, got shapes (1, 2) and (2,)"),
            ([[1.0, 0.0]], [[1.0, 0.0, 0.0]], DimensionMismatchError, "embedding widths differ: 2 vs 3"),
            ([[1.0, 0.0]], np.empty((0, 2)), EmptyInputError, "passage embedding matrix has no rows"),
        ],
        ids=["1-d-query", "1-d-passage", "widths", "no-passage-rows"],
    )
    def test_malformed_input_is_a_typed_error_with_a_fixed_text(self, hq, hp, error, text):
        with pytest.raises(error) as info:
            maxsim_score(hq, hp)
        assert str(info.value) == text

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
        exact_rows = mock.Mock(side_effect=AssertionError("rows decoded"))
        with mock.patch("modir.scoring._blocked_maxsim", side_effect=AssertionError("blocked pass ran")):
            with mock.patch("modir.scoring.maxsim_exact", side_effect=AssertionError("passage scored")):
                with pytest.raises(InvalidConfigError, match=f"got {k}"):
                    maxsim_top_k(q_unit, table, np.arange(3), np.array([0, 1, 2, 3]), k, exact_rows)
        exact_rows.assert_not_called()

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
        rows = np.arange(table.shape[0])
        if data.draw(st.booleans()):  # rows gathered from a shuffled table by position
            rows = np.random.default_rng(len(picks)).permutation(table.shape[0])
            shuffled = np.empty_like(table)
            shuffled[rows] = table
            table = shuffled
            passages = [table[rows[offsets[i] : offsets[i + 1]]] for i in range(len(passages))]
        elif data.draw(st.booleans()):  # the table in the length walk's order, read in contiguous slices
            table, rows = table[walk_rows(offsets)], None
        scores = np.array([maxsim_unit(q_unit, p) for p in passages])
        expect = rank(scores)[:k]
        exact_rows = lambda survivors: np.vstack([passages[i] for i in survivors])  # noqa: E731
        if data.draw(st.booleans()):  # select from a float32 copy, as re-rank and the oracle do
            table = table.astype(np.float32)
        with mock.patch("modir.scoring._MAXSIM_BLOCK", block):
            order, got = maxsim_top_k(q_unit, table, rows, offsets, k, exact_rows)
        assert np.array_equal(order, expect)
        assert got.tobytes() == scores[expect].tobytes()

    def test_survivors_are_decoded_sixteen_blocks_of_rows_at_a_time(self, monkeypatch):
        monkeypatch.setattr("modir.scoring._MAXSIM_BLOCK", 2)
        rng = np.random.default_rng(8)
        table = normalize_rows(rng.normal(size=(40, 3)))
        offsets = np.arange(41)
        q_unit = normalize_rows(rng.normal(size=(2, 3)))
        asked = []

        def exact_rows(passages):
            asked.append(passages.size)
            return table[passages]

        order, got = maxsim_top_k(q_unit, table.astype(np.float32), None, offsets, None, exact_rows)
        scores = per_passage_maxsim(q_unit, table, offsets)
        assert asked == [32, 8]
        assert np.array_equal(order, rank(scores)) and got.tobytes() == scores[order].tobytes()


def per_passage_maxsim(q_unit, table, offsets):
    """Each passage's MaxSim, one 2-d product per passage."""
    return np.array([(q_unit @ table[a:b].T).max(axis=1).sum() for a, b in zip(offsets[:-1], offsets[1:])])


class RowsAskedFor:
    """A row table that records how many rows each read asks for."""

    def __init__(self, table):
        self.table, self.reads = table, []

    def __getitem__(self, picked):
        self.reads.append(len(picked))
        return self.table[picked]


class BlocksRead:
    """A row table that keeps every block read from it."""

    def __init__(self, table):
        self.table, self.dtype, self.reads = table, table.dtype, []

    def __getitem__(self, picked):
        block = self.table[picked]
        self.reads.append(block)
        return block


class TestLengthWalk:
    """``_blocked_maxsim`` scores each chunk of the length walk as one block:
    a slice of a table grouped in walk order (the oracle's) and a gather
    through positions (re-rank's) must read the same blocks, so their BLAS
    products, and the blocked scores, are the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(block=st.sampled_from([1, 3, 7, 1024]), seed=st.integers(0, 2**16), data=st.data())
    def test_grouped_slices_equal_gathers_and_stay_within_the_gap(self, block, seed, data):
        lengths = data.draw(st.lists(st.integers(1, block + 2), max_size=12))
        terms, dim = data.draw(st.integers(1, 5)), data.draw(st.sampled_from([1, 3, 8]))
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        unit = normalize_rows(rng.normal(size=(offsets[-1], dim)))
        unit[rng.random(offsets[-1]) < 0.2] = 0.0
        q_unit = normalize_rows(rng.normal(size=(terms, dim)))
        q_unit[rng.random(terms) < 0.2] = 0.0
        stored = unit.astype(np.float32)
        positions = np.arange(offsets[-1])
        if data.draw(st.booleans()):  # a shuffled table read through positions, as re-rank's
            positions = rng.permutation(offsets[-1])
            shuffled = np.empty_like(stored)
            shuffled[positions] = stored
            stored = shuffled
        grouped = BlocksRead(unit.astype(np.float32)[walk_rows(offsets)])
        gathered = BlocksRead(stored)
        with mock.patch("modir.scoring._MAXSIM_BLOCK", block):
            sliced = _blocked_maxsim(q_unit, grouped, None, offsets)
            through = _blocked_maxsim(q_unit, gathered, positions, offsets)
            chunks = list(_length_chunks(offsets))
        assert sliced.tobytes() == through.tobytes()
        assert len(grouped.reads) == len(gathered.reads) == len(chunks)
        for a, b, (items, _, n_rows) in zip(grouped.reads, gathered.reads, chunks):
            assert a.shape == b.shape == (items.size * n_rows, dim) and a.tobytes() == b.tobytes()
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert a.shape[0] <= max(block, n_rows)
        expect = per_passage_maxsim(q_unit, unit, offsets)
        assert np.all(np.abs(sliced - expect) <= maxsim_rounding_gap(terms, dim, np.float32))


class TestFloat32Cosines:
    """The per-cosine step of ``maxsim_rounding_gap``'s float32 proof, on
    this BLAS: a float32 product of float64 unit rows rounded to float32,
    at the search stages' shapes and in both their orientations, is
    within (g(dim) (1 + u)**2 + 2u + u**2) |q| |r| of the float64 rows' real
    cosine, g(m) = m u / (1 - m u), u = 2**-24. The reference is each
    product's ``math.fsum`` (each float64 product within 2**-53 of its real
    value, which the bound also allows). A BLAS that accumulates in a way
    the proof does not cover fails here, not as a first-stage score above
    its exact one. The first stage multiplies query terms x a run of a
    list's rows; the blocked selection of re-rank and the oracle
    (``scoring._blocked_maxsim``) multiplies a block of up to
    ``_MAXSIM_BLOCK`` rows x query terms, ``block @ q.T``."""

    @staticmethod
    def per_cosine_bound(dim: int) -> float:
        u = 2.0**-24
        return dim * u / (1 - dim * u) * (1 + u) ** 2 + 2 * u + u * u + 2.0**-52

    def check_products(self, terms, dim, n_rows, kind, product):
        """``product(query terms, table rows)``, both float32, as (terms x rows) cosines within the bound."""
        rng = np.random.default_rng([terms, dim, n_rows, len(kind)])
        q = rng.normal(size=(terms, dim))
        rows = rng.normal(size=(n_rows + 1, dim))
        if kind != "random":
            q, rows = np.abs(q), np.abs(rows)
        if kind == "nearly-parallel":
            q = q[:1] + 1e-7 * rng.normal(size=(terms, dim))
            rows = q[:1] + 1e-7 * rng.normal(size=(n_rows + 1, dim))
        q_unit, unit = normalize_rows(q), normalize_rows(rows)
        table = unit.astype(np.float32)[1:]  # a contiguous run of rows past the table's first, as a list or block
        sims = product(q_unit.astype(np.float32), table)
        assert sims.dtype == np.float32
        bound = self.per_cosine_bound(dim) * (1 + (dim / 2 + 2) * 2.0**-53) ** 2  # unit rows' norms, at most
        for t in range(terms):
            exact = np.array([math.fsum(q_unit[t] * r) for r in unit[1:]])
            assert np.all(np.abs(sims[t].astype(np.float64) - exact) <= bound)

    @pytest.mark.parametrize("kind", ["random", "all-positive", "nearly-parallel"])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 64, 1024, 1025])
    @pytest.mark.parametrize("dim", [1, 5, 128])
    @pytest.mark.parametrize("terms", [1, 32])
    def test_float32_products_stay_within_the_per_cosine_bound(self, terms, dim, n_rows, kind):
        self.check_products(terms, dim, n_rows, kind, lambda q32, table: q32 @ table.T)

    @pytest.mark.parametrize("kind", ["random", "all-positive", "nearly-parallel"])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 64, 1024, 1025])
    @pytest.mark.parametrize("dim", [1, 5, 128])
    @pytest.mark.parametrize("terms", [1, 32])
    def test_block_by_terms_products_stay_within_the_per_cosine_bound(self, terms, dim, n_rows, kind):
        # the blocked selection's layout: a contiguous block of rows times the query's transpose
        self.check_products(terms, dim, n_rows, kind, lambda q32, table: (table @ q32.T).T)

    @pytest.mark.parametrize("dim", [1, 5, 128])
    @pytest.mark.parametrize("terms", [1, 32])
    def test_a_maxsim_of_such_cosines_stays_within_half_the_float32_gap(self, terms, dim):
        # n cosines' errors, a float64 sum's rounding of n maxima, and the float64 evaluation's own error
        per = self.per_cosine_bound(dim) * (1 + (dim / 2 + 2) * 2.0**-53) ** 2
        g64 = lambda m: m * 2.0**-53 / (1 - m * 2.0**-53)  # noqa: E731
        float32_side = terms * per + g64(terms - 1) * terms * (1 + per)
        float64_side = terms * (g64(dim) + g64(terms - 1) * (1 + g64(dim))) * (1 + (dim / 2 + 2) * 2.0**-53) ** 2
        assert float32_side + float64_side <= maxsim_rounding_gap(terms, dim, np.float32) / 2


class TestStackedMaxSimKeepsBits:
    """The premise of ``maxsim_exact``: at MaxSim shapes, each item of a
    stacked ``np.matmul`` has the bits of the same 2-d product, and the
    kernel's per-term maxima and term sum give ``.max(axis=1).sum()`` of that
    product. The one-term and one-row shapes take numpy's matrix-vector
    path. A numpy or BLAS change that breaks this fails here, not as a
    changed run file."""

    @pytest.mark.parametrize("items", [1, 8])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 64, 1024, 1025])
    @pytest.mark.parametrize("dim", [1, 5, 128])
    @pytest.mark.parametrize("terms", [1, 3, 32])
    def test_each_item_has_the_bits_of_its_own_product(self, terms, dim, n_rows, items):
        rng = np.random.default_rng([terms, dim, n_rows, items])
        q_unit = normalize_rows(rng.normal(size=(terms, dim)))
        stack = normalize_rows(rng.normal(size=(items * n_rows, dim))).reshape(items, n_rows, dim)
        sims = np.matmul(q_unit, stack.transpose(0, 2, 1))
        scores = sims.transpose(2, 0, 1).copy().max(axis=0).sum(axis=-1)
        for i in range(items):
            alone = q_unit @ stack[i].T
            assert sims[i].tobytes() == alone.tobytes()
            assert scores[i].tobytes() == alone.max(axis=1).sum().tobytes()


class TestMaxsimExact:
    LAYOUTS = {
        "no-passages": [],
        "one-row": [1] * 5,
        "equal": [4] * 6,
        "distinct": [1, 2, 3, 4, 5, 6],
        "longer-than-a-block": [9, 2, 9, 1],
    }

    @pytest.mark.parametrize("block", [1, 3, 7, 1024])
    @pytest.mark.parametrize("lengths", LAYOUTS.values(), ids=LAYOUTS)
    def test_each_layout_equals_the_per_passage_formula(self, monkeypatch, lengths, block):
        monkeypatch.setattr("modir.scoring._MAXSIM_BLOCK", block)
        rng = np.random.default_rng(len(lengths) + block)
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        table = normalize_rows(rng.normal(size=(offsets[-1], 5)))
        table[::4] = 0.0
        q_unit = normalize_rows(rng.normal(size=(3, 5)))
        recorder = RowsAskedFor(table)
        got = maxsim_exact(q_unit, recorder, offsets)
        assert got.tobytes() == per_passage_maxsim(q_unit, table, offsets).tobytes()
        # every row is read once, in reads of at most a block of rows or one passage
        assert sum(recorder.reads) == offsets[-1]
        assert all(n <= block or n in lengths for n in recorder.reads)

    def test_a_nan_query_row_scores_every_passage_nan(self):
        rng = np.random.default_rng(5)
        offsets = np.array([0, 2, 5, 6])
        table = normalize_rows(rng.normal(size=(6, 4)))
        q_unit = normalize_rows(rng.normal(size=(3, 4)))
        q_unit[1] = np.nan
        got = maxsim_exact(q_unit, table, offsets)
        assert np.isnan(got).all()
        assert got.tobytes() == per_passage_maxsim(q_unit, table, offsets).tobytes()

    def test_a_passage_without_rows_is_refused(self):
        with pytest.raises(EmptyInputError, match="no rows"):
            maxsim_exact(np.eye(2), np.eye(2), np.array([0, 2, 2]))

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 9), max_size=14),
        dim=st.sampled_from([1, 3, 5, 128]),
        terms=st.integers(1, 5),
        block=st.sampled_from([1, 3, 7, 1024]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_equals_the_per_passage_formula(self, lengths, dim, terms, block, seed, data):
        # Lengths repeat often (equal lengths share a stack); rows may be zero
        # or repeated, and a query row zero or NaN.
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
        table = normalize_rows(rng.normal(size=(offsets[-1], dim)))
        if data.draw(st.booleans()):  # rows drawn from three distinct ones and a zero row
            pool = np.vstack([normalize_rows(rng.normal(size=(3, dim))), np.zeros((1, dim))])
            table = pool[rng.integers(0, 4, size=offsets[-1])]
        q_unit = normalize_rows(rng.normal(size=(terms, dim)))
        q_unit[rng.random(terms) < 0.2] = data.draw(st.sampled_from([0.0, np.nan]))
        with mock.patch("modir.scoring._MAXSIM_BLOCK", block):
            got = maxsim_exact(q_unit, table, offsets)
        assert got.tobytes() == per_passage_maxsim(q_unit, table, offsets).tobytes()
