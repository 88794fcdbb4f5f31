import math
import tempfile
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
    build_inbatch_negatives,
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
from modir.scoring import PreparedSequence

LANGS = ("aa", "bb")


def tiny_params(seed=0, vocab=24, d=6, d_out=5, n_layers=2, bottleneck=3):
    return init_params(LANGS, vocab=vocab, d=d, d_out=d_out, n_layers=n_layers, bottleneck=bottleneck, seed=seed)


def random_sequence(rng, lang, kind="passage", low=4, length=None):
    length = length if length is not None else int(rng.integers(3, 8))
    ids = tuple(int(t) for t in rng.integers(low, 24, size=length))
    return PreparedSequence(ids, kind=kind, language=lang)


def random_batch(rng, n, lang="aa"):
    triples = tuple(
        TrainingTriple(
            query=random_sequence(rng, lang, "query"),
            positive=random_sequence(rng, lang),
            hard_negative=random_sequence(rng, lang),
        )
        for _ in range(n)
    )
    return Batch(triples)


def named_blocks(params, langs):
    """(label, array) pairs for every parameter block touching the given languages."""
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


def grad_blocks(grads, langs):
    yield "embedding", grads.embedding
    for i, layer in enumerate(grads.shared_layers):
        yield f"shared{i}.w_self", layer.w_self
        yield f"shared{i}.w_ctx", layer.w_ctx
        yield f"shared{i}.bias", layer.bias
    yield "w_out", grads.w_out
    for lang in langs:
        for i, ad in enumerate(grads.adapters[lang]):
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
    analytic = dict(grad_blocks(grads, langs))
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


class TestInbatchNegatives:
    def test_single_triple_has_no_negatives(self):
        batch = random_batch(np.random.default_rng(2), 1)
        assert build_inbatch_negatives(batch, 0) == []

    def test_two_triples(self):
        batch = random_batch(np.random.default_rng(3), 2)
        negs = build_inbatch_negatives(batch, 0)
        assert negs == [batch.triples[1].positive, batch.triples[1].hard_negative]
        assert len(negs) == 2 * (2 - 1)

    def test_five_triples_excludes_own(self):
        batch = random_batch(np.random.default_rng(4), 5)
        negs = build_inbatch_negatives(batch, 3)
        assert len(negs) == 2 * (5 - 1)
        assert batch.triples[3].positive not in negs
        assert batch.triples[3].hard_negative not in negs

    def test_index_out_of_range(self):
        batch = random_batch(np.random.default_rng(5), 2)
        with pytest.raises(InvalidConfigError):
            build_inbatch_negatives(batch, 2)

    def test_mixed_language_triple_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(InvalidConfigError):
            TrainingTriple(
                query=random_sequence(rng, "aa", "query"),
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
        seq = PreparedSequence(tuple(range(6)), kind="passage", language="bb")
        out = encode(seq, params)
        assert out.shape == (6, params.d_out)
        assert np.all(np.isfinite(out))

    def test_unknown_language_rejected(self):
        params = tiny_params()
        seq = PreparedSequence((4, 5), kind="passage", language="zz")
        with pytest.raises(UnknownLanguageError):
            encode(seq, params)

    def test_out_of_vocab_token_rejected(self):
        params = tiny_params()
        with pytest.raises(InvalidConfigError):
            encode(PreparedSequence((4, 99), kind="passage", language="aa"), params)


class TestTotalLoss:
    def test_identical_positive_and_negative_gives_two_ln2(self):
        rng = np.random.default_rng(9)
        passage = random_sequence(rng, "aa")
        triple = TrainingTriple(
            query=random_sequence(rng, "aa", "query"),
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
            s_ib = [maxsim_score(hq, encode(p, params)) for p in build_inbatch_negatives(batch, i)]
            expected += pairwise_loss(s_pos, s_neg) + inbatch_loss(s_pos, s_neg, s_ib)
        expected /= len(batch)
        assert total_loss(batch, params) == pytest.approx(expected, abs=1e-10)

    def test_zero_projection_scores_zero_with_zero_gradients(self):
        # every embedding row has zero norm: all MaxSim scores are 0
        params = tiny_params(seed=4)
        params.w_out[...] = 0.0
        n = 3
        loss, grads = total_loss_and_grads(random_batch(np.random.default_rng(12), n), params)
        assert loss == pytest.approx(math.log(2.0) + math.log(2.0 * n), abs=1e-12)
        for label, block in grad_blocks(grads, ["aa"]):
            assert not block.any(), label


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
        tied = PreparedSequence((7,) * 5, kind="passage", language="aa")
        rows = encode(tied, params)
        assert all(np.array_equal(rows[0], row) for row in rows[1:])
        first = TrainingTriple(random_sequence(rng, "aa", "query"), tied, random_sequence(rng, "aa"))
        batch = Batch((first,) + random_batch(rng, 1).triples)
        assert_loss_directional_derivatives(batch, params, ["aa"], rng)

    def test_total_loss_sampled_entries(self):
        rng = np.random.default_rng(123)
        params = tiny_params(seed=99)
        batch = random_batch(rng, 2)
        _, grads = total_loss_and_grads(batch, params)
        analytic = dict(grad_blocks(grads, ["aa"]))
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
        analytic = dict(grad_blocks(grads, ["aa"]))
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
                query=PreparedSequence(q, kind="query", language=lang),
                positive=PreparedSequence(p, kind="passage", language=lang),
                hard_negative=PreparedSequence(neg, kind="passage", language=lang),
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


class TestAddLanguage:
    def test_existing_encodings_unchanged(self):
        params = tiny_params()
        seq = random_sequence(np.random.default_rng(20), "aa")
        before = encode(seq, params).tobytes()
        add_language(params, "cc", init_seed=42)
        assert encode(seq, params).tobytes() == before

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

    def test_non_finite_parameter_is_format_error(self, tmp_path):
        params = tiny_params(seed=26)
        params.w_out[1, 2] = np.inf
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(FormatError, match="model.ckpt"):
            load_checkpoint(path)

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_params(seed=27), path)
        before = path.read_bytes()
        real_blocks = encoder._param_blocks

        def first_block_then_fail(params):
            blocks = real_blocks(params)
            yield next(blocks)
            raise OSError("disk full")

        monkeypatch.setattr(encoder, "_param_blocks", first_block_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(tiny_params(seed=28), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(FormatError):
            load_checkpoint(path)
