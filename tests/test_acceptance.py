"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to watch them). The numbered
descriptions match the criteria list in the project README.
"""

import json
import math
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from modir.cli import main as cli_main
from modir.encoder import (
    Batch,
    TrainingTriple,
    add_language,
    encode,
    finetune_step,
    inbatch_loss,
    init_params,
    mlm_step,
    pairwise_loss,
    total_loss,
    total_loss_and_grads,
)
from modir.evaluation import (
    HardwareProfile,
    brute_force_search,
    estimate_energy_emissions,
    mrr_at_k,
    recall_at_k,
)
from modir.index import (
    DuplicateCentroidWarning,
    SearchParams,
    approximate_candidates,
    build_index,
    exact_rerank,
    save_index,
    search,
)
from modir.scoring import prepare_passage, prepare_query
from tests.conftest import build_language_files, build_triples
from tests.test_encoder import central_difference, named_blocks


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {description}")
        raise
    print(f"[criterion {num:2d}] PASS  {description}")


# ---------------------------------------------------------------------------
# Shared synthetic retrieval world (criteria 1 and 2).
# Embeddings are nonnegative so every per-term maximum cosine is >= 0, the
# regime in which the unfetched-term-scores-0 convention is a true lower bound.


def synthetic_corpus_and_queries(seed=1234, n_passages=1000, dim=16, n_queries=100):
    rng = np.random.default_rng(seed)
    centers = np.abs(rng.normal(size=(40, dim)))
    corpus = {}
    for i in range(n_passages):
        c = centers[rng.integers(len(centers))]
        rows = int(rng.integers(4, 33))
        # zero-padded ids: lexicographic order == build order, so tie-breaking
        # is identical between the index and the brute-force oracle
        corpus[f"{i:04d}"] = np.abs(c + 0.25 * rng.normal(size=(rows, dim)))
    queries = []
    for _ in range(n_queries):
        c = centers[rng.integers(len(centers))]
        rows = int(rng.integers(4, 17))
        queries.append(np.abs(c + 0.25 * rng.normal(size=(rows, dim))))
    return corpus, queries


@pytest.fixture(scope="module")
def retrieval_world():
    corpus, queries = synthetic_corpus_and_queries()
    index = build_index(corpus, seed=7)
    return corpus, queries, index


def test_criterion_1_oracle_equivalence(retrieval_world):
    corpus, queries, index = retrieval_world
    with criterion(1, "full-probe search ranks identically to the brute-force oracle (<60 s)"):
        started = time.perf_counter()
        decompressed = index.decompressed_corpus()
        params = SearchParams(n_probe=index.centroid_count, candidate_k=1000, final_k=1000)
        mismatches = 0
        for q in queries:
            got = search(q, index, params)
            oracle = brute_force_search(q, decompressed, 1000)
            if got != oracle:
                mismatches += 1
        elapsed = time.perf_counter() - started
        assert mismatches == 0, f"{mismatches} of {len(queries)} queries mismatched the oracle"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_2_lower_bound(retrieval_world):
    _, queries, index = retrieval_world
    with criterion(2, "approximate scores lower-bound exact decompressed MaxSim in 100% of cases"):
        checked = 0
        for n_probe in (1, 4, index.centroid_count):
            params = SearchParams(n_probe=n_probe, candidate_k=10_000, final_k=10)
            for q in queries:
                approx = approximate_candidates(q, index, params)
                exact = dict(exact_rerank(q, [pid for pid, _ in approx], index))
                for pid, score in approx:
                    assert score <= exact[pid] + 1e-6, (
                        f"n_probe={n_probe} passage={pid}: approx {score} > exact {exact[pid]}"
                    )
                    checked += 1
        assert checked > 100_000  # candidate sets were nontrivial


def test_criterion_3_compression_arithmetic(tmp_path):
    with criterion(3, "274 bits/vector at d_out=128, |C|=2^18; exact code section on a 10k-vector index"):
        rng = np.random.default_rng(99)
        # per-passage term clusters, like encoder output; keeps inverted-list
        # deltas small so the varint encoding stays within the 5% overhead
        corpus = {
            i: np.abs(rng.normal(size=128) + 0.12 * rng.normal(size=(20, 128))) for i in range(500)
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DuplicateCentroidWarning)
            index = build_index(corpus, seed=3, centroid_count=2**18)
        assert index.bits_per_embedding == 274 == 2 * 128 + 18
        assert abs(2048 / 274 - 7.47) < 0.01  # vs 16-bit storage, "roughly 7x"
        assert index.embedding_count == 10_000
        out = tmp_path / "big_index"
        save_index(index, out)
        code_bytes = (out / "codes.bin").stat().st_size
        assert code_bytes == math.ceil(10_000 * 274 / 8) == 342_500
        aux = sum(
            (out / name).stat().st_size
            for name in ("meta.json", "codec.f32", "invlists.bin", "passages.bin")
        )
        assert aux <= 0.05 * code_bytes, f"auxiliary files take {aux} bytes (> 5% of {code_bytes})"
        meta = json.loads((out / "meta.json").read_text())
        assert meta["bits_per_embedding"] == 274 and meta["id_bits"] == 18
        from modir.index import load_index

        loaded = load_index(out)
        assert loaded.embedding_count == 10_000
        np.testing.assert_array_equal(loaded.centroid_ids, index.centroid_ids)
        np.testing.assert_array_equal(loaded.decompress_passage(123), index.decompress_passage(123))


def test_criterion_4_gradient_check():
    with criterion(4, "analytic gradients match central differences (rel err <= 1e-4, 20 seeds)"):
        from tests.test_encoder import random_batch, tiny_params

        for seed in range(20):
            rng = np.random.default_rng(seed)
            lang = ("aa", "bb")[seed % 2]
            params = tiny_params(seed=seed + 100)
            batch = random_batch(rng, 2, lang=lang)
            _, grads = total_loss_and_grads(batch, params)
            analytic = dict(named_blocks(grads, [lang]))
            for label, block in named_blocks(params, [lang]):
                direction = rng.normal(size=block.shape)
                direction /= np.linalg.norm(direction)
                numeric = central_difference(lambda: total_loss(batch, params), block, direction)
                a = float(np.sum(analytic[label] * direction))
                denom = max(abs(a), abs(numeric), 1e-8)
                assert abs(a - numeric) / denom <= 1e-4, (
                    f"seed {seed} {label}: analytic {a} vs numeric {numeric}"
                )


def test_criterion_5_freezing_contracts():
    with criterion(5, "finetune freezes adapters+embeddings; extend freezes theta/w_out/old adapters (bytes)"):
        from tests.test_encoder import structured_batch, tiny_params

        params = tiny_params(seed=11)
        params.set_stage("finetune")
        batch = structured_batch(seed=21)
        frozen = lambda: [params.embedding.tobytes()] + [
            arr.tobytes() for name, arr in named_blocks(params, ("aa", "bb")) if name.startswith("adapter:")
        ]
        before = frozen()
        for _ in range(100):
            finetune_step(batch, params, lr=0.05)
        assert frozen() == before

        add_language(params, "cc", init_seed=77)
        theta_like = lambda: [params.w_out.tobytes(), params.embedding.tobytes()] + [
            arr.tobytes()
            for name, arr in named_blocks(params, ("aa", "bb"))
            if name.startswith(("shared", "adapter:"))
        ]
        before = theta_like()
        rng = np.random.default_rng(31)
        from tests.test_encoder import random_sequence

        for _ in range(100):
            mlm_step(params, random_sequence(rng, "cc", length=10), "cc", 0.4, 0.1, rng)
        assert theta_like() == before


def test_criterion_6_loss_closed_forms():
    with criterion(6, "pairwise(s,s)=ln2, uniform in-batch over 4 = ln4, shift invariance (1e-9)"):
        assert abs(pairwise_loss(0.37, 0.37) - math.log(2.0)) <= 1e-9
        assert abs(inbatch_loss(0.0, 0.0, [0.0, 0.0]) - math.log(4.0)) <= 1e-9
        base_pair = pairwise_loss(1.1, -0.6)
        base_ib = inbatch_loss(1.1, -0.6, [0.2, -1.4, 0.9])
        assert abs(pairwise_loss(1.1 + 17.3, -0.6 + 17.3) - base_pair) <= 1e-9
        shifted = inbatch_loss(1.1 + 17.3, -0.6 + 17.3, [s + 17.3 for s in (0.2, -1.4, 0.9)])
        assert abs(shifted - base_ib) <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 7: zero-shot transfer mechanism on two synthetic languages with
# disjoint token ranges, different surface statistics, and a shared
# topic-match relevance rule.

N_TOPICS, WORDS_PER_TOPIC, N_FILLER = 8, 4, 8
LANG_SIZE = N_TOPICS * WORDS_PER_TOPIC + N_FILLER
ZS_VOCAB = 4 + 2 * LANG_SIZE
ZS_STYLE = {
    "aa": dict(filler=0.2, noise=0.15, length=10, zipf=False),
    "bb": dict(filler=0.45, noise=0.2, length=14, zipf=True),
}


def _lang_base(lang):
    return 4 if lang == "aa" else 4 + LANG_SIZE


def _topic_word(lang, topic, rng):
    base = _lang_base(lang) + topic * WORDS_PER_TOPIC
    if ZS_STYLE[lang]["zipf"]:
        return base + min(int(rng.zipf(1.6)) - 1, WORDS_PER_TOPIC - 1)
    return base + int(rng.integers(WORDS_PER_TOPIC))


def _zs_passage(lang, topic, rng):
    style = ZS_STYLE[lang]
    filler_base = _lang_base(lang) + N_TOPICS * WORDS_PER_TOPIC
    tokens = []
    for _ in range(style["length"]):
        u = rng.random()
        if u < style["filler"]:
            tokens.append(filler_base + int(rng.integers(N_FILLER)))
        elif u < style["filler"] + style["noise"]:
            tokens.append(_topic_word(lang, int(rng.integers(N_TOPICS)), rng))
        else:
            tokens.append(_topic_word(lang, topic, rng))
    return prepare_passage(tokens, 16, lang)


def _zs_query(lang, topic, rng, route_lang=None):
    tokens = [_topic_word(lang, topic, rng) for _ in range(2)]
    return prepare_query(tokens, 8, route_lang or lang)


def _zs_mrr(params, lang, route_lang, n_queries=40, per_topic=6, seed=500):
    rng = np.random.default_rng(seed)
    corpus_tokens = {
        f"p{t}-{j}": _zs_passage(lang, t, rng).token_ids
        for t in range(N_TOPICS)
        for j in range(per_topic)
    }
    corpus = {
        pid: encode(prepare_passage(list(toks[2:]), 16, route_lang), params)
        for pid, toks in corpus_tokens.items()
    }
    run, qrels = {}, {}
    for qn in range(n_queries):
        t = int(rng.integers(N_TOPICS))
        q = encode(_zs_query(lang, t, rng, route_lang=route_lang), params)
        run[f"q{qn}"] = brute_force_search(q, corpus, 10)
        qrels[f"q{qn}"] = {f"p{t}-{j}": 1 for j in range(per_topic)}
    return mrr_at_k(run, qrels, 10)


def test_criterion_7_zero_shot_mechanism():
    with criterion(7, "zero-shot: B via B adapters beats 5x random baseline and B-through-A routing"):
        seed = 0
        rng = np.random.default_rng(seed)
        params = init_params(
            ("aa", "bb"), vocab=ZS_VOCAB, d=32, d_out=16, n_layers=2, bottleneck=8, seed=seed
        )
        mlm_rng = np.random.default_rng((seed, 1))
        for step in range(1000):
            lang = ("aa", "bb")[step % 2]
            topic = int(rng.integers(N_TOPICS))
            mlm_step(params, _zs_passage(lang, topic, rng), lang, 0.3, 0.03, mlm_rng)

        params.set_stage("finetune")
        ft_rng = np.random.default_rng((seed, 2))
        for _ in range(300):
            triples = []
            for _ in range(4):
                t = int(ft_rng.integers(N_TOPICS))
                t_neg = int(ft_rng.integers(N_TOPICS))
                while t_neg == t:
                    t_neg = int(ft_rng.integers(N_TOPICS))
                triples.append(
                    TrainingTriple(
                        query=_zs_query("aa", t, ft_rng),
                        positive=_zs_passage("aa", t, ft_rng),
                        hard_negative=_zs_passage("aa", t_neg, ft_rng),
                    )
                )
            finetune_step(Batch(tuple(triples)), params, lr=0.01)

        corpus_size = N_TOPICS * 6
        random_baseline = 1.0 / corpus_size
        mrr_b = _zs_mrr(params, "bb", "bb")
        mrr_b_via_a = _zs_mrr(params, "bb", "aa")
        assert mrr_b >= 5.0 * random_baseline, f"MRR {mrr_b:.3f} < 5x baseline {5 * random_baseline:.3f}"
        assert mrr_b > mrr_b_via_a, f"B via B {mrr_b:.3f} <= B via A adapters {mrr_b_via_a:.3f}"


ENERGY_TABLE = [
    # devices, tdp W, hours -> expected kWh / kg from the hardware columns, printed figures
    (32, 300.0, 24.0, 230.4, 99.5328, 230.4, 99.52),
    (1, 400.0, 50.0, 20.0, 8.64, 20.0, 8.64),
    (1, 300.0, 36.0, 10.8, 4.6656, 10.8, 4.67),
    (1, 283.0, 27.0, 7.641, 3.300912, 7.6, 3.30),
    (1, 310.0, 7.5, 2.325, 1.0044, 2.3, 1.01),
]


def test_criterion_8_energy_table():
    with criterion(8, "all five hardware rows reproduce kWh and kgCO2eq within ±0.5%"):
        for devices, tdp, hours, kwh, kg, printed_kwh, printed_kg in ENERGY_TABLE:
            got_kwh, got_kg = estimate_energy_emissions(
                HardwareProfile(devices, tdp, hours, carbon_efficiency=0.432)
            )
            assert abs(got_kwh - kwh) / kwh <= 0.005
            assert abs(got_kg - kg) / kg <= 0.005
            # published table prints at reduced precision
            assert abs(got_kwh - printed_kwh) <= 0.05
            assert abs(got_kg - printed_kg) <= 0.02


def test_criterion_9_metric_fixture():
    with criterion(9, "MRR@10 and R@100 on the 5-query fixture match hand-computed values exactly"):
        run = {
            "q1": [(f"d{i}", 100.0 - i) for i in range(100)],  # relevant d0 at rank 1
            "q2": [(f"d{i}", 100.0 - i) for i in range(100)],  # first relevant d3 at rank 4
            "q3": [(f"d{i}", 100.0 - i) for i in range(100)],  # relevant d50: beyond 10, within 100
            "q4": [(f"d{i}", 100.0 - i) for i in range(100)],  # 2 of 4 relevant in top 100
            "q5": [(f"d{i}", 100.0 - i) for i in range(5)],  # nothing relevant retrieved
        }
        qrels = {
            "q1": {"d0": 1},
            "q2": {"d3": 2, "d80": 1},
            "q3": {"d50": 1},
            "q4": {"d10": 1, "d20": 1, "x1": 1, "x2": 1},
            "q5": {"zz": 1},
        }
        # per query: 1, 1/4, 0, 0, 0 -> mean 0.25
        assert mrr_at_k(run, qrels, 10) == (1.0 + 0.25 + 0.0 + 0.0 + 0.0) / 5
        # per query: 1, 2/2, 1, 2/4, 0 -> mean 0.7
        assert recall_at_k(run, qrels, 100) == (1.0 + 1.0 + 1.0 + 0.5 + 0.0) / 5
        values = [recall_at_k(run, qrels, k) for k in range(1, 101)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert mrr_at_k(run, qrels, 4) == (1.0 + 0.25) / 5  # cutoff drops nothing else


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "two seeded train->index->search runs are byte-identical end to end"):
        cfg = {
            "n": 8, "m": 16, "d_out": 8, "d": 8, "n_layers": 2, "bottleneck": 4,
            "vocab": 64, "seed": 5, "batch_size": 2, "learning_rate": 0.05,
            "mask_rate": 0.3, "pretrain_steps": 40, "finetune_steps": 20,
            "extend_steps": 10, "n_probe": 2, "candidate_k": 50, "final_k": 5,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(cfg))
        corpus, queries, _, passages, qs = build_language_files(tmp_path, "aa")
        triples = build_triples(tmp_path, "aa", passages, qs, np.random.default_rng(3))

        outputs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            ck_pre, ck_ft = base / "pre.ckpt", base / "ft.ckpt"
            idx_dir, run_path = base / "idx", base / "out.run"
            for argv in (
                ["train", "--stage", "pretrain", "--corpus", corpus, "--checkpoint-out", ck_pre,
                 "--config", config_path],
                ["train", "--stage", "finetune", "--corpus", corpus, "--queries", queries,
                 "--triples", triples, "--checkpoint-in", ck_pre, "--checkpoint-out", ck_ft,
                 "--config", config_path],
                ["index", "--corpus", corpus, "--checkpoint", ck_ft, "--out", idx_dir,
                 "--config", config_path],
                ["search", "--index", idx_dir, "--queries", queries, "--checkpoint", ck_ft,
                 "--out", run_path, "--config", config_path],
            ):
                assert cli_main([str(a) for a in argv]) == 0
            outputs.append(
                {
                    "pre": ck_pre.read_bytes(),
                    "ft": ck_ft.read_bytes(),
                    "run": run_path.read_bytes(),
                    "index": {p.name: p.read_bytes() for p in idx_dir.iterdir()},
                }
            )
        assert outputs[0]["pre"] == outputs[1]["pre"]
        assert outputs[0]["ft"] == outputs[1]["ft"]
        assert outputs[0]["index"] == outputs[1]["index"]
        assert outputs[0]["run"] == outputs[1]["run"]
