import contextlib
import math
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modir import encoder
from modir.encoder import (
    Batch,
    TrainingTriple,
    add_language,
    encode,
    finetune_step,
    inbatch_loss,
    init_params,
    load_checkpoint,
    mlm_loss_and_grads,
    mlm_step,
    pairwise_loss,
    save_checkpoint,
    total_loss,
    total_loss_and_grads,
)
from modir.errors import (
    FormatError,
    InvalidConfigError,
    NonFiniteError,
    StageError,
    UnknownLanguageError,
)
from modir.scoring import PreparedSequence, normalize_rows, prepare_passage, prepare_query

LANGS = ("aa", "bb")
SHAPES = {
    "tiny": dict(vocab=24, d=6, d_out=5, n_layers=2, bottleneck=3),
    "default": dict(vocab=1024, d=32, d_out=128, n_layers=2, bottleneck=8),
}


def tiny_params(seed=0, vocab=24, d=6, d_out=5, n_layers=2, bottleneck=3):
    return init_params(LANGS, vocab=vocab, d=d, d_out=d_out, n_layers=n_layers, bottleneck=bottleneck, seed=seed)


def random_sequence(rng, lang, low=4, length=None):
    length = length if length is not None else int(rng.integers(3, 8))
    ids = tuple(int(t) for t in rng.integers(low, 24, size=length))
    return PreparedSequence(ids, language=lang)


def random_batch(rng, n, lang="aa"):
    triples = tuple(
        TrainingTriple(
            query=random_sequence(rng, lang),
            positive=random_sequence(rng, lang),
            hard_negative=random_sequence(rng, lang),
        )
        for _ in range(n)
    )
    return Batch(triples)


def named_blocks(params, langs):
    """(label, array) pairs for every parameter block touching the given
    languages, in checkpoint order; a gradient has the same blocks."""
    yield "embedding", params.embedding
    for i, layer in enumerate(params.shared_layers):
        yield f"shared{i}.w_self", layer.w_self
        yield f"shared{i}.w_ctx", layer.w_ctx
        yield f"shared{i}.bias", layer.bias
    yield "w_out", params.w_out
    for lang in langs:
        for i, ad in enumerate(params.adapters[lang]):
            yield f"adapter:{lang}:{i}.w_down", ad.w_down
            yield f"adapter:{lang}:{i}.b_down", ad.b_down
            yield f"adapter:{lang}:{i}.w_up", ad.w_up
            yield f"adapter:{lang}:{i}.b_up", ad.b_up


def central_difference(loss_fn, block, direction, h=1e-6):
    block += h * direction
    plus = loss_fn()
    block -= 2.0 * h * direction
    minus = loss_fn()
    block += h * direction
    return (plus - minus) / (2.0 * h)


def assert_loss_directional_derivatives(batch, params, langs, rng):
    """Analytic contrastive gradients against central differences along one
    random unit direction per block."""
    _, grads = total_loss_and_grads(batch, params)
    analytic = dict(named_blocks(grads, langs))
    for label, block in named_blocks(params, langs):
        direction = rng.normal(size=block.shape)
        direction /= np.linalg.norm(direction)
        numeric = central_difference(lambda: total_loss(batch, params), block, direction)
        a = float(np.sum(analytic[label] * direction))
        denom = max(abs(a), abs(numeric), 1e-8)
        assert abs(a - numeric) / denom <= 1e-4, f"{label}: analytic {a} vs numeric {numeric}"


def param_bytes(params):
    return [arr.tobytes() for _, arr in named_blocks(params, params.languages())]


class TestPairwiseLoss:
    def test_symmetric_point_is_ln2(self):
        assert pairwise_loss(0.7, 0.7) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_closed_form_positive_margin(self):
        assert pairwise_loss(2.0, 0.0) == pytest.approx(math.log1p(math.exp(-2.0)), abs=1e-12)
        assert pairwise_loss(2.0, 0.0) == pytest.approx(0.126928, abs=1e-6)

    def test_closed_form_negative_margin(self):
        assert pairwise_loss(0.0, 2.0) == pytest.approx(math.log1p(math.exp(2.0)), abs=1e-12)
        assert pairwise_loss(0.0, 2.0) == pytest.approx(2.126928, abs=1e-6)

    def test_overflow_safe(self):
        assert pairwise_loss(1000.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert pairwise_loss(0.0, 1000.0) == pytest.approx(1000.0, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.normal(scale=10.0, size=2)
            assert pairwise_loss(a, b) >= 0.0

    def test_shift_invariance(self):
        assert pairwise_loss(1.2 + 17.3, -0.4 + 17.3) == pytest.approx(pairwise_loss(1.2, -0.4), abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            pairwise_loss(float("nan"), 0.0)
        with pytest.raises(NonFiniteError):
            pairwise_loss(0.0, float("inf"))


class TestInbatchLoss:
    def test_empty_inbatch_reduces_to_pairwise(self):
        assert inbatch_loss(1.3, -0.2, []) == pytest.approx(pairwise_loss(1.3, -0.2), abs=1e-12)

    def test_uniform_scores_over_four(self):
        assert inbatch_loss(0.0, 0.0, [0.0, 0.0]) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_dominant_positive(self):
        expected = math.log1p(3.0 * math.exp(-10.0))
        assert inbatch_loss(10.0, 0.0, [0.0, 0.0]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.36e-4, rel=0.02)

    def test_monotone_in_each_inbatch_score(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s_pos, s_neg = rng.normal(size=2)
            s_ib = list(rng.normal(size=3))
            base = inbatch_loss(s_pos, s_neg, s_ib)
            bumped = s_ib.copy()
            bumped[1] += abs(rng.normal())
            assert inbatch_loss(s_pos, s_neg, bumped) >= base - 1e-12
            assert base >= inbatch_loss(s_pos, s_neg, s_ib[:2]) - 1e-12  # adding a score never helps

    def test_shift_invariance(self):
        a = inbatch_loss(0.3, -0.9, [0.1, 0.4, -2.0])
        b = inbatch_loss(0.3 + 17.3, -0.9 + 17.3, [s + 17.3 for s in (0.1, 0.4, -2.0)])
        assert b == pytest.approx(a, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            inbatch_loss(0.0, 0.0, [float("nan")])


class TestTrainingTriple:
    def test_mixed_language_triple_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidConfigError):
            TrainingTriple(
                query=random_sequence(rng, "aa"),
                positive=random_sequence(rng, "bb"),
                hard_negative=random_sequence(rng, "aa"),
            )


class TestEncode:
    def test_deterministic(self):
        params = tiny_params()
        seq = random_sequence(np.random.default_rng(7), "aa")
        a = encode(seq, params)
        b = encode(seq, params)
        assert a.tobytes() == b.tobytes()

    def test_routing_isolation(self):
        params = tiny_params()
        seq = random_sequence(np.random.default_rng(8), "aa")
        before = encode(seq, params)
        for ad in params.adapters["bb"]:
            ad.w_up += 123.0
            ad.b_down -= 5.0
        after = encode(seq, params)
        assert before.tobytes() == after.tobytes()

    def test_shape_contract(self):
        params = tiny_params()
        seq = PreparedSequence(tuple(range(6)), language="bb")
        out = encode(seq, params)
        assert out.shape == (6, params.d_out)
        assert np.all(np.isfinite(out))

    def test_unknown_language_rejected(self):
        params = tiny_params()
        seq = PreparedSequence((4, 5), language="zz")
        with pytest.raises(UnknownLanguageError):
            encode(seq, params)

    def test_out_of_vocab_token_rejected(self):
        params = tiny_params()
        with pytest.raises(InvalidConfigError):
            encode(PreparedSequence((4, 99), language="aa"), params)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_encode_batch_gives_each_sequence_the_bits_of_encode(self, shape, monkeypatch):
        # a small row budget splits the larger buckets over several calls
        monkeypatch.setattr(encoder, "_ENCODE_ROWS", 12)
        cfg = SHAPES[shape]
        params = init_params(LANGS, seed=9, **cfg)
        rng = np.random.default_rng(10)
        seqs = [
            PreparedSequence(tuple(int(t) for t in rng.integers(4, cfg["vocab"], size=int(rng.choice([1, 3, 5, 20])))),
                             language=LANGS[int(rng.integers(2))])
            for _ in range(40)
        ]
        assert max(Counter((s.language, len(s)) for s in seqs).values()) > 12 // 3
        out = encoder.encode_batch(seqs, params)
        assert len(out) == len(seqs)
        for seq, matrix in zip(seqs, out):
            assert np.array_equal(matrix, encode(seq, params))

    def test_encode_batch_raises_for_the_first_bad_sequence(self):
        params = tiny_params()
        good = PreparedSequence((4, 5), language="aa")
        with pytest.raises(UnknownLanguageError, match="'zz'"):
            encoder.encode_batch([good, PreparedSequence((4,), language="zz"),
                                  PreparedSequence((4, 99), language="aa")], params)
        with pytest.raises(InvalidConfigError):
            encoder.encode_batch([good, PreparedSequence((4, 99), language="zz")], params)
        assert encoder.encode_batch([], params) == []


class TestTotalLoss:
    def test_identical_positive_and_negative_gives_two_ln2(self):
        rng = np.random.default_rng(9)
        passage = random_sequence(rng, "aa")
        triple = TrainingTriple(
            query=random_sequence(rng, "aa"),
            positive=passage,
            hard_negative=passage,
        )
        params = tiny_params()
        assert total_loss(Batch((triple,)), params) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_nonnegative_on_random_batches(self):
        params = tiny_params()
        for seed in range(5):
            batch = random_batch(np.random.default_rng(30 + seed), int(seed % 3) + 1)
            assert total_loss(batch, params) >= 0.0

    def test_two_triple_objective_matches_hand_enumeration(self):
        # encoder bypassed: hand-set embeddings, expected value from pure-Python
        # cosine/max/softmax arithmetic
        from modir.scoring import maxsim_score

        def cos(u, v):
            dot = sum(a * b for a, b in zip(u, v))
            nu = math.sqrt(sum(a * a for a in u))
            nv = math.sqrt(sum(b * b for b in v))
            return dot / (nu * nv)

        def maxsim(hq, hp):
            return sum(max(cos(q, p) for p in hp) for q in hq)

        q = [[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [1.0, 1.0]]]
        pos = [[[1.0, 0.1]], [[0.1, 1.0], [0.7, 0.3]]]
        neg = [[[-1.0, 0.2], [0.3, -0.9]], [[0.9, -0.4]]]
        expected = 0.0
        for i in range(2):
            j = 1 - i
            s_pos = maxsim(q[i], pos[i])
            s_neg = maxsim(q[i], neg[i])
            s_ib = [maxsim(q[i], pos[j]), maxsim(q[i], neg[j])]
            expected += -math.log(math.exp(s_pos) / (math.exp(s_pos) + math.exp(s_neg)))
            denom = math.exp(s_pos) + math.exp(s_neg) + sum(math.exp(s) for s in s_ib)
            expected += -math.log(math.exp(s_pos) / denom)
        expected /= 2.0

        got = 0.0
        for i in range(2):
            j = 1 - i
            s_pos = maxsim_score(q[i], pos[i])
            s_neg = maxsim_score(q[i], neg[i])
            s_ib = [maxsim_score(q[i], pos[j]), maxsim_score(q[i], neg[j])]
            got += pairwise_loss(s_pos, s_neg) + inbatch_loss(s_pos, s_neg, s_ib)
        got /= 2.0
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_manual_composition(self):
        # recompute the objective from encodings and the loss closed forms
        from modir.scoring import maxsim_score

        params = tiny_params(seed=3)
        rng = np.random.default_rng(10)
        batch = random_batch(rng, 3)
        expected = 0.0
        for i, triple in enumerate(batch.triples):
            hq = encode(triple.query, params)
            s_pos = maxsim_score(hq, encode(triple.positive, params))
            s_neg = maxsim_score(hq, encode(triple.hard_negative, params))
            others = [s for j, t in enumerate(batch.triples) if j != i for s in (t.positive, t.hard_negative)]
            s_ib = [maxsim_score(hq, encode(p, params)) for p in others]
            expected += pairwise_loss(s_pos, s_neg) + inbatch_loss(s_pos, s_neg, s_ib)
        expected /= len(batch)
        assert total_loss(batch, params) == pytest.approx(expected, abs=1e-10)

    def test_unregistered_language_rejected(self):
        with pytest.raises(UnknownLanguageError, match="'zz'"):
            total_loss_and_grads(random_batch(np.random.default_rng(13), 2, lang="zz"), tiny_params())

    def test_an_unregistered_language_is_named_before_a_later_bad_token(self):
        # the first sequence's language fails before the last sequence's token is read
        rng = np.random.default_rng(14)
        triples = list(random_batch(rng, 2, lang="zz").triples)
        last = triples[-1]
        bad = PreparedSequence(last.hard_negative.token_ids + (24,), language="zz")  # vocab is 24
        triples[-1] = TrainingTriple(last.query, last.positive, bad)
        params = tiny_params()
        with pytest.raises(UnknownLanguageError, match="'zz'"):
            total_loss_and_grads(Batch(tuple(triples)), params)
        params.set_stage("finetune")
        with pytest.raises(UnknownLanguageError, match="'zz'"):
            finetune_step(Batch(tuple(triples)), params, lr=0.1)

    def test_zero_projection_scores_zero_with_zero_gradients(self):
        # every embedding row has zero norm: all MaxSim scores are 0
        params = tiny_params(seed=4)
        params.w_out[...] = 0.0
        n = 3
        loss, grads = total_loss_and_grads(random_batch(np.random.default_rng(12), n), params)
        assert loss == pytest.approx(math.log(2.0) + math.log(2.0 * n), abs=1e-12)
        for label, block in named_blocks(grads, ["aa"]):
            assert not block.any(), label


def padded_total_loss_and_grads(batch, params):
    """Reference: the contrastive kernel in its padded form. Each sequence is
    projected on its own; each passage's rows are copied into a (2n, width)
    grid padded to the longest passage, whose padding cells score -inf; the
    backward pass scatters the score gradients into a one-hot (padded
    passage rows x query rows) matrix and un-pads its product. The encoder
    runs one sequence at a time (``ref_forward``, ``ref_backward_state``)."""
    seqs = encoder._batch_sequences(batch)
    langs = sorted({s.language for s in seqs})
    ids_list = [encoder._token_array(s, params.vocab_size) for s in seqs]
    forwards = [ref_forward(ids, s.language, params) for ids, s in zip(ids_list, seqs)]
    states = np.concatenate([state for state, _ in forwards])
    embs = np.concatenate([state @ params.w_out for state, _ in forwards])
    units = normalize_rows(embs)

    n = len(batch)
    lens = np.array([len(ids) for ids in ids_list])
    starts = np.concatenate(([0], np.cumsum(lens)))
    width = lens[n:].max()
    real = np.arange(width) < lens[n:, None]
    rows = np.where(real, starts[n:-1, None] + np.arange(width), 0)
    q, p_flat = units[: starts[n]], units[rows.ravel()]
    sim = np.where(real[..., None], (p_flat @ q.T).reshape(2 * n, width, -1), -np.inf)
    best = sim.argmax(axis=1)
    cos = sim.max(axis=1)
    scores = np.stack([cos[:, lo:hi].sum(axis=1) for lo, hi in zip(starts[:n], starts[1 : n + 1])])

    cols = np.arange(n)
    pos, neg = scores[cols, 2 * cols], scores[cols, 2 * cols + 1]
    total = 0.0
    for i in range(n):
        total += pairwise_loss(pos[i], neg[i]) + inbatch_loss(pos[i], neg[i], np.delete(scores[i], [2 * i, 2 * i + 1]))
    inv_n = 1.0 / n
    sig = 1.0 / (1.0 + np.exp(pos - neg))
    d_scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    d_scores /= d_scores.sum(axis=1, keepdims=True)
    d_scores[cols, 2 * cols] -= 1.0 + sig
    d_scores[cols, 2 * cols + 1] += sig
    d_scores *= inv_n

    onehot = np.zeros((2 * n * width, starts[n]))
    onehot[np.arange(2 * n)[:, None] * width + best, np.arange(starts[n])] = np.repeat(d_scores, lens[:n], axis=0).T
    d_units = np.concatenate((onehot.T @ p_flat, (onehot @ q)[real.ravel()]))
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    d_tangent = d_units - units * (units * d_units).sum(axis=1, keepdims=True)
    d_embs = np.divide(d_tangent, norms, out=np.zeros_like(units), where=norms > 0.0)

    grads = params.zeros(langs)
    grads.w_out += states.T @ d_embs
    d_states = d_embs @ params.w_out.T
    for k, (ids, s, (_, cache)) in enumerate(zip(ids_list, seqs, forwards)):
        ref_backward_state(ids, cache, d_states[starts[k] : starts[k + 1]], s.language, params, grads)
    return total * inv_n, grads


def prepared_batch(rng, n, lang, vocab, query_rows, text_len, one_token=0.0, tied=0.0):
    """n triples framed as ``modir train`` frames them: each query padded to a
    row count drawn from ``query_rows``, each passage from a text of
    ``text_len`` tokens. A passage's text is one token with probability
    ``one_token``; with probability ``tied`` the passage is one id repeated,
    whose identical rows tie every maximum. Every sequence has at least two
    rows, as framed ones do: a one-row sequence's projection on its own runs
    through a matrix-vector product, whose last bits can differ from those
    of the same row in the batch's one projection."""

    def text(low, high):
        return [int(t) for t in rng.integers(4, vocab, size=int(rng.integers(low, high + 1)))]

    def query():
        rows = int(rng.integers(query_rows[0], query_rows[1] + 1))
        return prepare_query(text(1, rows - 2), rows, lang)

    def passage():
        draw = rng.random()
        if draw < one_token:
            return prepare_passage(text(1, 1), 256, lang)
        if draw < one_token + tied:
            return PreparedSequence((7,) * int(rng.integers(2, 6)), language=lang)
        return prepare_passage(text(*text_len), 256, lang)

    return Batch(tuple(TrainingTriple(query(), passage(), passage()) for _ in range(n)))


class TestPaddedReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_loss_and_every_gradient_block_equal_the_padded_kernel(self, seed):
        rng = np.random.default_rng(seed)
        lang = LANGS[seed % 2]
        params = tiny_params(seed=seed + 200)
        batch = prepared_batch(rng, 1 + seed % 5, lang, 24, (3, 11), (2, 18), one_token=0.3, tied=0.2)
        loss, grads = total_loss_and_grads(batch, params)
        ref_loss, ref_grads = padded_total_loss_and_grads(batch, params)
        assert loss == ref_loss
        assert np.array_equal(grads.core, ref_grads.core)
        assert np.array_equal(grads.flat_adapters[lang], ref_grads.flat_adapters[lang])

    @pytest.mark.parametrize("seed", range(3))
    def test_finetune_sized_batches_give_the_padded_kernels_loss(self, seed):
        # d_out 128, batch 8, 32-row queries, 16-64-row passages: the gradient
        # products no longer sum over padding zeros, so their last bits may move
        rng = np.random.default_rng(seed)
        params = init_params(LANGS, vocab=1024, d=32, d_out=128, seed=seed)
        batch = prepared_batch(rng, 8, "aa", 1024, (32, 32), (14, 62))
        loss, grads = total_loss_and_grads(batch, params)
        ref_loss, ref_grads = padded_total_loss_and_grads(batch, params)
        assert loss == ref_loss
        assert np.abs(grads.core - ref_grads.core).max() <= 1e-12 * np.abs(ref_grads.core).max()

    def test_a_nan_in_the_projection_is_non_finite_error(self):
        # every cosine is NaN, so no row equals its passage's maximum
        params = tiny_params(seed=5)
        params.w_out[2, 1] = np.nan
        batch = prepared_batch(np.random.default_rng(6), 3, "aa", 24, (3, 11), (2, 18), one_token=0.3)
        with pytest.raises(NonFiniteError):
            total_loss_and_grads(batch, params)


class TestGradients:
    @pytest.mark.parametrize("seed", range(6))
    def test_total_loss_directional_derivatives(self, seed):
        rng = np.random.default_rng(seed)
        params = tiny_params(seed=seed + 50)
        batch = random_batch(rng, 2, lang=LANGS[seed % 2])
        assert_loss_directional_derivatives(batch, params, [LANGS[seed % 2]], rng)

    def test_tied_maxima_pass_the_directional_check(self):
        # one repeated token id encodes to identical rows, so each query row's
        # maximum over that passage is an exact tie
        rng = np.random.default_rng(41)
        params = tiny_params(seed=41)
        tied = PreparedSequence((7,) * 5, language="aa")
        rows = encode(tied, params)
        assert all(np.array_equal(rows[0], row) for row in rows[1:])
        first = TrainingTriple(random_sequence(rng, "aa"), tied, random_sequence(rng, "aa"))
        batch = Batch((first,) + random_batch(rng, 1).triples)
        assert_loss_directional_derivatives(batch, params, ["aa"], rng)

    def test_zero_norm_rows_get_zero_gradient_and_the_rest_pass_the_directional_check(self, monkeypatch):
        # only some encoded rows have zero norm: the forward pass zeroes one
        # state row of the first positive and one of the second query
        rng = np.random.default_rng(43)
        params = tiny_params(seed=43)
        batch = random_batch(rng, 2)
        zero_rows = {batch.triples[0].positive.token_ids: 1, batch.triples[1].query.token_ids: 0}
        assert len(zero_rows) == 2
        forward, backward = encoder._forward, encoder._backward_state

        # both passes may take a stack of sequences (ids of shape (B, L))
        def items(ids, rows):
            return zip(ids.reshape(-1, ids.shape[-1]), rows.reshape(-1, *rows.shape[-2:]))

        def forward_with_zero_rows(ids, lang, params):
            state, cache = forward(ids, lang, params)
            state = state.copy()
            for tokens, item in items(ids, state):
                row = zero_rows.get(tuple(tokens.tolist()))
                if row is not None:
                    item[row] = 0.0
            return state, cache

        d_states = {}

        def recording_backward(ids, layer_cache, d_state, lang, params, grads, trains):
            for tokens, item in items(ids, d_state):
                d_states[tuple(tokens.tolist())] = item.copy()
            return backward(ids, layer_cache, d_state, lang, params, grads, trains)

        monkeypatch.setattr(encoder, "_forward", forward_with_zero_rows)
        monkeypatch.setattr(encoder, "_backward_state", recording_backward)
        _, grads = total_loss_and_grads(batch, params)
        for tokens, row in zero_rows.items():
            assert not d_states[tokens][row].any()
            assert np.delete(d_states[tokens], row, axis=0).any()
        assert all(np.isfinite(block).all() for _, block in named_blocks(grads, ["aa"]))
        assert_loss_directional_derivatives(batch, params, ["aa"], rng)

    def test_total_loss_sampled_entries(self):
        rng = np.random.default_rng(123)
        params = tiny_params(seed=99)
        batch = random_batch(rng, 2)
        _, grads = total_loss_and_grads(batch, params)
        analytic = dict(named_blocks(grads, ["aa"]))
        for label, block in named_blocks(params, ["aa"]):
            flat = block.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                direction = np.zeros_like(flat)
                direction[idx] = 1.0
                numeric = central_difference(
                    lambda: total_loss(batch, params), flat, direction
                )
                a = analytic[label].reshape(-1)[idx]
                assert abs(a - numeric) <= 1e-4 * max(1.0, abs(a), abs(numeric)), label

    def test_mlm_directional_derivatives(self):
        rng = np.random.default_rng(17)
        params = tiny_params(seed=70)
        ids = rng.integers(4, 24, size=9)
        mask = np.zeros(9, dtype=bool)
        mask[[1, 4, 5]] = True
        _, grads = mlm_loss_and_grads(ids, "aa", mask, params)
        analytic = dict(named_blocks(grads, ["aa"]))
        for label, block in named_blocks(params, ["aa"]):
            direction = rng.normal(size=block.shape)
            direction /= np.linalg.norm(direction)
            numeric = central_difference(
                lambda: mlm_loss_and_grads(ids, "aa", mask, params)[0], block, direction
            )
            a = float(np.sum(analytic[label] * direction))
            if label == "w_out":
                assert a == 0.0 and abs(numeric) < 1e-9  # head bypasses the projection
                continue
            denom = max(abs(a), abs(numeric), 1e-8)
            assert abs(a - numeric) / denom <= 1e-4, f"{label}: analytic {a} vs numeric {numeric}"

    @pytest.mark.parametrize("masked", [False, True], ids=["no-mask", "masked"])
    def test_mlm_unregistered_language_rejected(self, masked):
        mask = np.array([False, masked, False])
        with pytest.raises(UnknownLanguageError, match="'zz'"):
            mlm_loss_and_grads([4, 5, 6], "zz", mask, tiny_params())


class TestMlmStep:
    def test_zero_mask_rate_is_noop(self):
        params = tiny_params()
        before = param_bytes(params)
        rng = np.random.default_rng(11)
        _, loss = mlm_step(params, random_sequence(rng, "aa"), "aa", mask_rate=0.0, lr=0.5, rng=rng)
        assert loss == 0.0
        assert param_bytes(params) == before

    def test_other_language_adapters_untouched(self):
        params = tiny_params()
        bb_before = [arr.tobytes() for name, arr in named_blocks(params, ["bb"]) if name.startswith("adapter:bb")]
        rng = np.random.default_rng(12)
        mlm_step(params, random_sequence(rng, "aa", length=12), "aa", mask_rate=0.5, lr=0.1, rng=rng)
        bb_after = [arr.tobytes() for name, arr in named_blocks(params, ["bb"]) if name.startswith("adapter:bb")]
        assert bb_after == bb_before

    def test_loss_decreases_over_training(self):
        params = tiny_params()
        rng = np.random.default_rng(13)
        corpus = {lang: [random_sequence(rng, lang, length=10) for _ in range(8)] for lang in LANGS}
        first = None
        last = None
        for step in range(200):
            lang = LANGS[step % 2]
            seq = corpus[lang][(step // 2) % 8]
            _, loss = mlm_step(params, seq, lang, mask_rate=0.3, lr=0.3, rng=rng)
            if first is None and loss > 0.0:
                first = loss
            if loss > 0.0:
                last = loss
        assert last < first

    def test_stage_mismatch_rejected(self):
        params = tiny_params()
        params.set_stage("finetune")
        rng = np.random.default_rng(14)
        with pytest.raises(StageError):
            mlm_step(params, random_sequence(rng, "aa"), "aa", 0.3, 0.1, rng)


def structured_batch(n=3, seed=1, lang="aa"):
    """Learnable triples: the positive contains the query tokens, the negative
    draws from a disjoint token range."""
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n):
        q = tuple(int(t) for t in rng.integers(4, 14, size=4))
        p = q + tuple(int(t) for t in rng.integers(4, 14, size=3))
        neg = tuple(int(t) for t in rng.integers(14, 24, size=6))
        triples.append(
            TrainingTriple(
                query=PreparedSequence(q, language=lang),
                positive=PreparedSequence(p, language=lang),
                hard_negative=PreparedSequence(neg, language=lang),
            )
        )
    return Batch(tuple(triples))


class TestFinetuneStep:
    def make(self, seed=15):
        params = tiny_params()
        params.set_stage("finetune")
        batch = random_batch(np.random.default_rng(seed), 3)
        return params, batch

    def test_adapters_and_embeddings_frozen(self):
        params, batch = self.make()
        frozen_before = [params.embedding.tobytes()] + [
            arr.tobytes() for name, arr in named_blocks(params, LANGS) if name.startswith("adapter:")
        ]
        for _ in range(20):
            finetune_step(batch, params, lr=0.2)
        frozen_after = [params.embedding.tobytes()] + [
            arr.tobytes() for name, arr in named_blocks(params, LANGS) if name.startswith("adapter:")
        ]
        assert frozen_after == frozen_before

    def test_zero_lr_changes_nothing_but_returns_loss(self):
        params, batch = self.make()
        before = param_bytes(params)
        _, loss = finetune_step(batch, params, lr=0.0)
        assert loss > 0.0
        assert param_bytes(params) == before

    def test_loss_decreases_over_training(self):
        params = tiny_params()
        params.set_stage("finetune")
        batch = structured_batch(seed=16)
        initial = total_loss(batch, params)
        loss = initial
        for _ in range(200):
            _, loss = finetune_step(batch, params, lr=0.002)
        assert loss < initial

    def test_shared_weights_do_move(self):
        params, batch = self.make()
        w_before = params.w_out.copy()
        s_before = params.shared_layers[0].w_self.copy()
        finetune_step(batch, params, lr=0.2)
        assert not np.array_equal(params.w_out, w_before)
        assert not np.array_equal(params.shared_layers[0].w_self, s_before)

    def test_mixed_language_batch_rejected(self):
        params, _ = self.make()
        rng = np.random.default_rng(18)
        batch = Batch(
            (
                random_batch(rng, 1, "aa").triples[0],
                random_batch(rng, 1, "bb").triples[0],
            )
        )
        with pytest.raises(InvalidConfigError):
            finetune_step(batch, params, lr=0.1)

    def test_stage_mismatch_rejected(self):
        params = tiny_params()  # still in pretrain
        batch = random_batch(np.random.default_rng(19), 1)
        with pytest.raises(StageError):
            finetune_step(batch, params, lr=0.1)


# Reference: the training steps written the plain way, with a fresh
# ``params.zeros`` accumulator per step, ``np.mean`` and ``p -= lr * g``.
# The steps reuse one accumulator, divide ``np.add.reduce`` sums by the count
# and update in place; every float must keep these bits.


def ref_norm_rows_forward(x):
    centered = x - x.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + encoder._NORM_EPS)
    return centered / scale, scale


def ref_norm_rows_backward(d_out, normed, scale):
    row_mean = d_out.mean(axis=1, keepdims=True)
    proj = (d_out * normed).mean(axis=1, keepdims=True)
    return (d_out - row_mean - normed * proj) / scale


def ref_forward(ids, lang, params):
    stacks = params.adapter_stack(lang)
    x = params.embedding[ids]
    layer_cache = []
    for layer, ad in zip(params.shared_layers, stacks):
        mean = x.mean(axis=0)
        act = np.tanh(x @ layer.w_self + mean @ layer.w_ctx + layer.bias)
        hid = np.tanh(act @ ad.w_down + ad.b_down)
        up = hid @ ad.w_up + ad.b_up
        normed, scale = ref_norm_rows_forward(x + up)
        layer_cache.append((x, act, hid, normed, scale))
        x = normed
    return x, layer_cache


def ref_backward_state(ids, layer_cache, d_state, lang, params, grads):
    stacks = params.adapter_stack(lang)
    g_ad = grads.adapters[lang]
    dx = d_state
    k = ids.shape[0]
    for li in reversed(range(params.n_layers)):
        x_in, act, hid, normed, scale = layer_cache[li]
        layer = params.shared_layers[li]
        ad = stacks[li]
        dx = ref_norm_rows_backward(dx, normed, scale)
        d_up = dx
        g_ad[li].w_up += hid.T @ d_up
        g_ad[li].b_up += d_up.sum(axis=0)
        d_hid = (d_up @ ad.w_up.T) * (1.0 - hid * hid)
        g_ad[li].w_down += act.T @ d_hid
        g_ad[li].b_down += d_hid.sum(axis=0)
        d_act = d_hid @ ad.w_down.T
        d_pre = d_act * (1.0 - act * act)
        g = grads.shared_layers[li]
        g.w_self += x_in.T @ d_pre
        col = d_pre.sum(axis=0)
        g.w_ctx += np.outer(x_in.mean(axis=0), col)
        g.bias += col
        dx = dx + d_pre @ layer.w_self.T + (col @ layer.w_ctx.T) / k
    np.add.at(grads.embedding, ids, dx)


def ref_encode(seq, params):
    ids = encoder._token_array(seq, params.vocab_size)
    state, _ = ref_forward(ids, seq.language, params)
    return state @ params.w_out


def ref_mlm_loss_and_grads(ids, lang, mask, params):
    grads = params.zeros([lang])
    if not mask.any():
        return 0.0, grads
    targets = ids[mask]
    masked_ids = ids.copy()
    masked_ids[mask] = encoder.MASK_ID
    state, cache = ref_forward(masked_ids, lang, params)
    logits = state[mask] @ params.embedding.T
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    m = targets.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(m), targets])))
    d_logits = probs
    d_logits[np.arange(m), targets] -= 1.0
    d_logits /= m
    d_state = np.zeros_like(state)
    d_state[mask] = d_logits @ params.embedding
    grads.embedding += d_logits.T @ state[mask]
    ref_backward_state(masked_ids, cache, d_state, lang, params, grads)
    return loss, grads


def ref_mlm_step(params, seq, lang, mask_rate, lr, rng):
    ids = encoder._token_array(seq, params.vocab_size)
    mask = rng.random(ids.shape[0]) < mask_rate
    loss, grads = ref_mlm_loss_and_grads(ids, lang, mask, params)
    if lr != 0.0 and mask.any():
        if params.stage == "pretrain":
            trained = slice(params.core.size - params.w_out.size)
            params.core[trained] -= lr * grads.core[trained]
        params.flat_adapters[lang] -= lr * grads.flat_adapters[lang]
    return loss


def ref_total_loss_and_grads(batch, params):
    """The contrastive kernel as it was written for one sequence at a time,
    copied literally, around the reference per-sequence passes."""
    seqs = encoder._batch_sequences(batch)
    ids_list = [encoder._token_array(s, params.vocab_size) for s in seqs]
    forwards = [ref_forward(ids, s.language, params) for ids, s in zip(ids_list, seqs)]
    states = np.concatenate([state for state, _ in forwards])
    embs = states @ params.w_out
    units = normalize_rows(embs)

    n = len(batch)
    lens = np.array([len(ids) for ids in ids_list])
    starts = np.concatenate(([0], np.cumsum(lens)))
    q, p = units[: starts[n]], units[starts[n] :]
    p_starts = starts[n:-1] - starts[n]
    sim = p @ q.T  # (passage rows, query rows)
    cos = np.maximum.reduceat(sim, p_starts)  # (2n, query rows)
    # a NaN cosine equals no maximum and leaves the sentinel len(p), but then
    # its score is NaN and the loss raises NonFiniteError before it is read
    at_max = np.where(sim == np.repeat(cos, lens[n:], axis=0), np.arange(len(p))[:, None], len(p))
    best = np.minimum.reduceat(at_max, p_starts)
    scores = np.stack([cos[:, lo:hi].sum(axis=1) for lo, hi in zip(starts[:n], starts[1 : n + 1])])

    cols = np.arange(n)
    pos, neg = scores[cols, 2 * cols], scores[cols, 2 * cols + 1]
    total = 0.0
    for i in range(n):
        total += pairwise_loss(pos[i], neg[i]) + inbatch_loss(pos[i], neg[i], np.delete(scores[i], [2 * i, 2 * i + 1]))
    # d(pair)/ds = (sigma(s_neg - s_pos)) on neg, negated on pos;
    # d(ib)/ds_j = softmax_j - 1{j = pos}.
    inv_n = 1.0 / n
    sig = 1.0 / (1.0 + np.exp(pos - neg))
    d_scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    d_scores /= d_scores.sum(axis=1, keepdims=True)
    d_scores[cols, 2 * cols] -= 1.0 + sig
    d_scores[cols, 2 * cols + 1] += sig
    d_scores *= inv_n

    weights = np.zeros_like(sim)  # d loss / d sim: nonzero only at the chosen rows
    weights[best, np.arange(starts[n])] = np.repeat(d_scores, lens[:n], axis=0).T
    d_units = np.concatenate((weights.T @ p, weights @ q))
    # through u = e / |e|: de = (du - u (u . du)) / |e|, zero where |e| = 0
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    d_tangent = d_units - units * (units * d_units).sum(axis=1, keepdims=True)
    d_embs = np.divide(d_tangent, norms, out=np.zeros_like(units), where=norms > 0.0)

    grads = params.zeros(sorted({s.language for s in seqs}))
    grads.w_out += states.T @ d_embs
    d_states = d_embs @ params.w_out.T
    for k, (ids, s, (_, cache)) in enumerate(zip(ids_list, seqs, forwards)):
        ref_backward_state(ids, cache, d_states[starts[k] : starts[k + 1]], s.language, params, grads)
    return total * inv_n, grads


def ref_finetune_step(batch, params, lr):
    loss, grads = ref_total_loss_and_grads(batch, params)
    if lr != 0.0:
        trained = slice(params.embedding.size, None)
        params.core[trained] -= lr * grads.core[trained]
    return loss


class TestStepsMatchTheReference:
    """Pretrain, finetune, extend and encode give the reference's bits: equal
    losses, equal parameter bytes after every step, equal encodings."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_stage_and_the_encodings(self, shape):
        cfg = SHAPES[shape]
        fast, ref = (init_params(LANGS, seed=41, **cfg) for _ in range(2))
        rng = np.random.default_rng(42)

        def seq(lang, low=1, high=40):
            ids = rng.integers(4, cfg["vocab"], size=int(rng.integers(low, high + 1)))
            return PreparedSequence(tuple(int(t) for t in ids), language=lang)

        def bucketed_batch(lang, lengths):
            # 8 triples: queries framed at one n, passages of two or three
            # lengths, one of them a single token, so each bucket stacks
            # several sequences
            def query():
                tokens = rng.integers(4, cfg["vocab"], size=int(rng.integers(1, 7)))
                return prepare_query([int(t) for t in tokens], 8, lang)

            def passage():
                length = int(rng.choice(lengths))
                return seq(lang, length, length)

            batch = Batch(tuple(TrainingTriple(query(), passage(), passage()) for _ in range(8)))
            sizes = Counter(len(s) for s in encoder._batch_sequences(batch))
            assert sizes[8] == 8 and sizes[1] >= 2 and len(sizes) >= 3
            return batch

        def same_params():
            assert param_bytes(fast) == param_bytes(ref)

        def mlm_steps(langs, steps):
            draws_fast, draws_ref = np.random.default_rng(43), np.random.default_rng(43)
            losses = []
            for step in range(steps):
                lang = langs[step % len(langs)]
                s, lr = seq(lang), (0.0 if step % 7 == 3 else 0.2)
                _, loss = mlm_step(fast, s, lang, 0.15, lr, draws_fast)
                assert loss == ref_mlm_step(ref, s, lang, 0.15, lr, draws_ref)
                same_params()
                losses.append(loss)
            return losses

        losses = mlm_steps(LANGS, 120)
        assert 0.0 in losses and any(loss > 0.0 for loss in losses)  # empty masks and real steps

        for model in (fast, ref):
            model.set_stage("finetune")
        for step in range(6):
            lang = LANGS[step % 2]
            batch = Batch(tuple(
                TrainingTriple(seq(lang, 3, 12), seq(lang, 2, 30), seq(lang, 2, 30)) for _ in range(1 + step % 3)
            ))
            lr = 0.0 if step == 2 else 0.05
            _, loss = finetune_step(batch, fast, lr)
            assert loss == ref_finetune_step(batch, ref, lr)
            same_params()
        for step in range(6):
            batch = bucketed_batch(LANGS[step % 2], (1, 5, 9) if step % 3 else (1, 6))
            lr = 0.0 if step == 4 else 0.05
            _, loss = finetune_step(batch, fast, lr)
            assert loss == ref_finetune_step(batch, ref, lr)
            same_params()

        for model in (fast, ref):
            add_language(model, "cc", init_seed=44)
        core_grads = fast._grads.core.tobytes()
        losses = mlm_steps(["cc"], 60)
        assert 0.0 in losses and any(loss > 0.0 for loss in losses)
        # extend steps write the new adapters' gradient alone, none of the core's
        assert fast._grads.core.tobytes() == core_grads and fast._grads.languages() == [*LANGS, "cc"]

        for lang in (*LANGS, "cc"):
            for _ in range(10):
                s = seq(lang)
                assert np.array_equal(encode(s, fast), ref_encode(s, ref))


class TestStepAccumulator:
    def test_mlm_loss_and_grads_returns_a_fresh_accumulator_that_steps_leave_alone(self):
        params = tiny_params(seed=45)
        rng = np.random.default_rng(46)
        ids = rng.integers(4, 24, size=9)
        mask = np.zeros(9, dtype=bool)
        mask[[0, 3, 7]] = True
        loss_a, first = mlm_loss_and_grads(ids, "aa", mask, params)
        kept = first.core.copy(), first.flat_adapters["aa"].copy()
        loss_b, second = mlm_loss_and_grads(ids, "aa", mask, params)
        assert loss_a == loss_b and first is not second
        assert not np.shares_memory(first.core, second.core)
        for _ in range(5):
            mlm_step(params, random_sequence(rng, "aa", length=10), "aa", 0.5, 0.3, rng)
        assert np.array_equal(first.core, kept[0]) and np.array_equal(first.flat_adapters["aa"], kept[1])
        assert first.languages() == ["aa"] and np.abs(kept[0]).sum() > 0.0

    def test_every_stage_on_one_model_allocates_one_workspace(self, monkeypatch):
        allocated = []
        real_zeros = encoder.ModularEncoderParams.zeros

        def spy(self, langs):
            allocated.append(tuple(langs))
            return real_zeros(self, langs)

        monkeypatch.setattr(encoder.ModularEncoderParams, "zeros", spy)
        params = tiny_params(seed=47)
        rng = np.random.default_rng(48)
        for step in range(50):
            lang = LANGS[step % 2]
            assert mlm_step(params, random_sequence(rng, lang, length=10), lang, 0.5, 0.1, rng)[0] is params
        workspace = params._grads
        params.set_stage("finetune")
        for step in range(10):
            assert finetune_step(random_batch(rng, 1 + step % 3, lang=LANGS[step % 2]), params, 0.05)[0] is params
        add_language(params, "cc", init_seed=49)
        for _ in range(20):
            assert mlm_step(params, random_sequence(rng, "cc", length=10), "cc", 0.5, 0.1, rng)[0] is params
        assert allocated == [tuple(LANGS)] and params._grads is workspace
        assert workspace.languages() == [*LANGS, "cc"]
        assert all(flat.shape == params.flat_adapters[lang].shape for lang, flat in workspace.flat_adapters.items())


class TestStackedProductsKeepBits:
    """The premise of the stacked encoder passes: for the shapes the kernel
    uses, each item of a stacked product or sum has the bits of the same item
    computed alone. A numpy or BLAS change that breaks this fails here, not
    as a checkpoint that no longer matches."""

    CASES = [(d, length, items) for d in (6, 32) for length in (1, 2, 7, 32) for items in (2, 8)]

    @pytest.mark.parametrize("d, length, items", CASES)
    def test_each_item_of_a_stacked_product_equals_the_2d_product(self, d, length, items):
        rng = np.random.default_rng(d * 100 + length * 10 + items)
        x = rng.normal(size=(items, length, d))
        for w in (rng.normal(size=(d, d)), rng.normal(size=(d, d)).T, rng.normal(size=(d, 3 * d + 1))):
            stacked = x @ w  # (B, L, d) @ (d, d) and (d, d_out), weights as stored or transposed
            for i in range(items):
                assert np.array_equal(stacked[i], x[i] @ w)
            rows = x[:, :1, :]  # (B, 1, d) @ (d, d): the one-row mean product
            stacked = rows @ w
            for i in range(items):
                assert np.array_equal(stacked[i, 0], x[i, 0] @ w)

    @pytest.mark.parametrize("d, length, items", CASES)
    def test_each_item_of_a_stacked_weight_gradient_equals_the_2d_product(self, d, length, items):
        rng = np.random.default_rng(d * 100 + length * 10 + items + 1)
        a, b, c = rng.normal(size=(items, length, d)), rng.normal(size=(items, length, d)), rng.normal(size=(items, length, 3))
        for left, right in ((a, b), (a, c), (c, a)):
            stacked = np.swapaxes(left, -1, -2) @ right
            for i in range(items):
                assert np.array_equal(stacked[i], left[i].T @ right[i])

    @pytest.mark.parametrize("d, length, items", CASES)
    def test_each_item_of_a_stacked_sum_equals_the_per_item_sum(self, d, length, items):
        x = np.random.default_rng(d + length + items).normal(size=(items, length, d))
        over_positions, over_features = np.add.reduce(x, axis=-2), np.add.reduce(x, axis=-1, keepdims=True)
        for i in range(items):
            assert np.array_equal(over_positions[i], np.add.reduce(x[i], axis=0))
            assert np.array_equal(over_features[i], np.add.reduce(x[i], axis=1, keepdims=True))


class RecordingAddAt:
    """Stands in for ``numpy`` inside the encoder module, recording the
    target of every ``np.add.at``."""

    def __init__(self):
        self.targets = []
        outer = self

        class Add:
            def __getattr__(self, name):
                return getattr(np.add, name)

            def __call__(self, *args, **kwargs):
                return np.add(*args, **kwargs)

            def at(self, target, *args):
                outer.targets.append(target)
                return np.add.at(target, *args)

        self.add = Add()

    def __getattr__(self, name):
        return getattr(np, name)


class TestStageAwareGradients:
    """A finetune step computes gradients only for the parts it trains (the
    extend stage's workspace is checked in TestStepsMatchTheReference)."""

    def test_fifty_finetune_steps_allocate_one_accumulator(self, monkeypatch):
        allocated = []
        real_zeros = encoder.ModularEncoderParams.zeros

        def spy(self, langs):
            allocated.append(tuple(langs))
            return real_zeros(self, langs)

        monkeypatch.setattr(encoder.ModularEncoderParams, "zeros", spy)
        params = tiny_params(seed=51)
        params.set_stage("finetune")
        rng = np.random.default_rng(52)
        for step in range(50):
            batch = random_batch(rng, 1 + step % 3, lang=LANGS[step % 2])
            assert finetune_step(batch, params, 0.05)[0] is params
        assert allocated == [tuple(LANGS)]  # the model's one workspace, of the full layout

    def test_a_finetune_step_scatters_nothing_into_the_embedding_gradient(self, monkeypatch):
        recorder = RecordingAddAt()
        monkeypatch.setattr(encoder, "np", recorder)
        params = tiny_params(seed=53)
        batch = random_batch(np.random.default_rng(54), 3)
        _, grads = total_loss_and_grads(batch, params)  # every gradient: one scatter for the batch
        assert len(recorder.targets) == 1 and np.shares_memory(recorder.targets[0], grads.embedding)
        recorder.targets.clear()
        params.set_stage("finetune")
        for _ in range(5):
            finetune_step(batch, params, 0.1)
        assert recorder.targets == []


class TestInitParams:
    def test_every_block_is_its_own_draw_in_declaration_order(self):
        # a reference that draws block by block, as the layout lists them
        vocab, d, d_out, n_layers, b = 24, 6, 5, 2, 3
        rng = np.random.default_rng(31)
        shapes = [(vocab, d)] + [(d, d), (d, d), (d,)] * n_layers + [(d, d_out)]
        shapes += [(d, b), (b,), (b, d), (d,)] * n_layers * len(LANGS)
        expected = [rng.uniform(-0.05, 0.05, size=shape) for shape in shapes]
        new_rng = np.random.default_rng(5)
        expected += [new_rng.uniform(-0.05, 0.05, size=shape) for shape in [(d, b), (b,), (b, d), (d,)] * n_layers]
        params = add_language(tiny_params(seed=31), "cc", init_seed=5)
        got = [block for _, block in named_blocks(params, params.languages())]
        assert [g.shape for g in got] == [e.shape for e in expected]
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    def test_a_negative_seed_is_a_typed_error(self):
        with pytest.raises(InvalidConfigError) as exc:
            tiny_params(seed=-1)
        assert exc.value.message == "seed must be >= 0, got -1"

    @pytest.mark.parametrize("vocab", [1, 3, 4])
    def test_a_vocab_without_a_text_token_is_a_typed_error(self, vocab):
        # [M] (id 3) and the other reserved ids must be rows of the table
        with pytest.raises(InvalidConfigError) as exc:
            init_params(["en"], vocab=vocab)
        assert exc.value.message == f"vocab must exceed 4, got {vocab}"


_LONG_NAME = "x" * 65_536  # one UTF-8 byte over the checkpoint's u16 length field


class TestLanguageNames:
    @pytest.mark.parametrize("name", ["\u00e9" * 32_768, _LONG_NAME, "\ud800"], ids=["2-byte", "ascii", "surrogate"])
    def test_init_params_refuses_a_name_a_checkpoint_cannot_hold(self, name):
        with pytest.raises(InvalidConfigError, match="^language name "):
            init_params(["aa", name])

    @pytest.mark.parametrize("name", [_LONG_NAME, "\ud800"], ids=["long", "surrogate"])
    def test_add_language_refuses_it_before_anything_changes(self, name):
        params = tiny_params()
        before = param_bytes(params)
        with pytest.raises(InvalidConfigError, match="^language name "):
            add_language(params, name, init_seed=1)
        assert params.languages() == list(LANGS) and params.stage == "pretrain" and not params.post_hoc
        assert param_bytes(params) == before

    def test_the_longest_name_round_trips(self, tmp_path):
        name = "\u00e9" * 32_767 + "x"  # 65,535 UTF-8 bytes
        params = init_params(["aa", name], vocab=8, d=2, d_out=2, n_layers=1, bottleneck=1)
        save_checkpoint(params, tmp_path / "model.ckpt")
        assert load_checkpoint(tmp_path / "model.ckpt").languages() == ["aa", name]


class TestAddLanguage:
    def test_existing_encodings_unchanged(self):
        params = tiny_params()
        seq = random_sequence(np.random.default_rng(20), "aa")
        before = encode(seq, params).tobytes()
        add_language(params, "cc", init_seed=42)
        assert encode(seq, params).tobytes() == before

    @pytest.mark.parametrize("seed", [-1, (3, -1)], ids=["int", "tuple"])
    def test_a_negative_seed_is_a_typed_error_before_anything_changes(self, seed):
        params = tiny_params()
        before = param_bytes(params)
        with pytest.raises(InvalidConfigError) as exc:
            add_language(params, "cc", init_seed=seed)
        assert exc.value.message == f"seed must be >= 0, got {seed}"
        assert params.languages() == list(LANGS) and params.stage == "pretrain" and not params.post_hoc
        assert param_bytes(params) == before

    def test_duplicate_language_rejected(self):
        params = tiny_params()
        with pytest.raises(UnknownLanguageError):
            add_language(params, "aa", init_seed=1)

    def test_extend_training_touches_only_new_adapters(self):
        params = tiny_params()
        rng = np.random.default_rng(21)
        add_language(params, "cc", init_seed=7)
        assert params.stage == "extend"
        frozen_before = [
            arr.tobytes() for name, arr in named_blocks(params, LANGS) if not name.startswith("cc")
        ]
        new_before = [ad.w_down.tobytes() for ad in params.adapters["cc"]]
        for step in range(50):
            mlm_step(params, random_sequence(rng, "cc", length=10), "cc", 0.4, 0.2, rng)
        frozen_after = [
            arr.tobytes() for name, arr in named_blocks(params, LANGS) if not name.startswith("cc")
        ]
        assert frozen_after == frozen_before  # theta, w_out, embeddings, aa/bb adapters
        assert [ad.w_down.tobytes() for ad in params.adapters["cc"]] != new_before

    def test_extend_stage_rejects_original_language(self):
        params = tiny_params()
        rng = np.random.default_rng(22)
        add_language(params, "cc", init_seed=7)
        with pytest.raises(StageError):
            mlm_step(params, random_sequence(rng, "aa"), "aa", 0.3, 0.1, rng)


class TestStageTransitions:
    def test_allowed_path(self):
        params = tiny_params()
        params.set_stage("finetune")
        params.set_stage("zeroshot")
        assert params.stage == "zeroshot"

    def test_backwards_transition_rejected(self):
        params = tiny_params()
        params.set_stage("finetune")
        with pytest.raises(StageError):
            params.set_stage("pretrain")

    def test_unknown_stage_rejected(self):
        with pytest.raises(StageError):
            tiny_params().set_stage("warmup")


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        params = tiny_params(seed=23)
        add_language(params, "cc", init_seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.stage == params.stage
        assert loaded.post_hoc == {"cc"}
        assert loaded.languages() == params.languages()
        for (name_a, a), (name_b, b) in zip(
            named_blocks(params, params.languages()), named_blocks(loaded, loaded.languages())
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(a, b)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = tiny_params(seed=24)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(params, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_truncation_is_format_error(self, data):
        params = tiny_params(seed=26)
        add_language(params, "cc", init_seed=5)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(params, path)
            raw = path.read_bytes()
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    @pytest.mark.parametrize("cut", [lambda raw: raw[:-9], lambda raw: raw[:12]], ids=["cut-by-9", "cut-to-12"])
    def test_truncated_checkpoint_is_format_error(self, tmp_path, cut):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_params(seed=25), path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(FormatError, match="model.ckpt"):
            load_checkpoint(path)

    def test_a_byte_after_the_parameters_is_format_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_params(seed=25), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=r"model\.ckpt has 1 trailing bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("flag", [2, 7, 255])
    def test_a_post_hoc_flag_other_than_0_or_1_is_format_error(self, tmp_path, flag):
        params = tiny_params(seed=26)
        add_language(params, "cc", init_seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        at = raw.index(b"\x02\x00cc") + 4  # u16 name length, the name, then its post-hoc flag
        assert raw[at] == 1
        path.write_bytes(raw[:at] + bytes([flag]) + raw[at + 1 :])
        with pytest.raises(FormatError, match=rf"model\.ckpt has post-hoc flag {flag} for language 'cc'"):
            load_checkpoint(path)

    def test_non_finite_parameter_is_format_error(self, tmp_path):
        params = tiny_params(seed=26)
        params.w_out[1, 2] = 0.125  # no draw of uniform(-0.05, 0.05)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)  # save refuses an infinite parameter, so write its bytes in afterwards
        raw = path.read_bytes()
        assert raw.count(struct.pack("<d", 0.125)) == 1
        path.write_bytes(raw.replace(struct.pack("<d", 0.125), struct.pack("<d", np.inf)))
        with pytest.raises(FormatError, match="model.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_a_non_finite_parameter_and_keeps_the_earlier_checkpoint(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_params(seed=27), path)
        before = path.read_bytes()
        params = add_language(tiny_params(seed=28), "cc", init_seed=5)
        params.adapters["cc"][1].b_up[2] = bad
        with pytest.raises(NonFiniteError, match=r"model\.ckpt"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_a_vocab_without_a_text_token_is_format_error_naming_the_file(self, tmp_path):
        # a well-formed file for a 4-row table: the header's vocab and the embedding rows cut to 4
        params = tiny_params(seed=26)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        assert struct.unpack_from("<I", raw, 8) == (24,)  # the first u32 after the 8-byte magic
        start = len(raw) - 8 * (params.core.size + sum(flat.size for flat in params.flat_adapters.values()))
        cut = 8 * (24 - 4) * params.d
        path.write_bytes(raw[:8] + struct.pack("<I", 4) + raw[12:start] + raw[start + cut :])
        with pytest.raises(FormatError, match=r"model\.ckpt has vocab 4; it must exceed 4"):
            load_checkpoint(path)

    def test_a_bad_stage_byte_is_format_error_naming_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_params(seed=25), path)
        raw = bytearray(path.read_bytes())
        assert raw[28] == 0  # after the 8-byte magic and five u32 sizes; pretrain
        raw[28] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=r"model\.ckpt has stage byte 9; it must be 0 to 3"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_params(seed=27), path)
        before = path.read_bytes()
        params = tiny_params(seed=28)
        header = len(before) - 8 * sum(flat.size for flat in [params.core, *params.flat_adapters.values()])
        real_write = encoder.atomic_write
        written = []

        class HeaderThenFail:
            def __init__(self, fh):
                self.fh = fh

            def write(self, raw):
                if sum(written) + len(raw) > header:
                    raise OSError("disk full")
                written.append(len(raw))
                return self.fh.write(raw)

        @contextlib.contextmanager
        def header_then_fail(target, mode):
            with real_write(target, mode) as fh:
                yield HeaderThenFail(fh)

        monkeypatch.setattr(encoder, "atomic_write", header_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(params, path)
        assert sum(written) == header
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_blocks_are_views_of_their_module_buffer_in_checkpoint_order(self, tmp_path):
        params = tiny_params(seed=29)
        add_language(params, "cc", init_seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        for model in (params, load_checkpoint(path)):
            blocks = list(named_blocks(model, model.languages()))
            for label, block in blocks:
                lang = label.split(":")[1] if label.startswith("adapter:") else None
                assert np.shares_memory(block, model.flat_adapters[lang] if lang else model.core), label
            section = b"".join(block.astype("<f8").tobytes() for _, block in blocks)
            assert len(section) == 8 * sum(flat.size for flat in [model.core, *model.flat_adapters.values()])
            assert raw.endswith(section)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(FormatError):
            load_checkpoint(path)
