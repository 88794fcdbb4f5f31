import json

import numpy as np
import pytest

# Two synthetic "languages" with disjoint surface vocabularies and a shared
# relevance rule: a query is about one topic and matches passages of that topic.
TOPIC_WORDS = {
    "aa": [
        ["alda", "arbo", "akvo"],
        ["bela", "bordo", "birdo"],
        ["cedro", "celo", "cielo"],
        ["domo", "danco", "dento"],
    ],
    "bb": [
        ["zunt", "zerk", "zova"],
        ["yilt", "yarn", "yopa"],
        ["xeta", "xilo", "xumo"],
        ["wund", "wavo", "wipo"],
    ],
    "cc": [
        ["qopi", "quzzo", "qafi"],
        ["ruvo", "ralo", "rixi"],
        ["savu", "sipo", "sumo"],
        ["tilo", "tavro", "tupi"],
    ],
}
FILLER = {"aa": ["kaj", "la"], "bb": ["und", "der"], "cc": ["nog", "pri"]}


def topic_passage_text(lang, topic, rng):
    words = list(TOPIC_WORDS[lang][topic])
    rng.shuffle(words)
    filler = FILLER[lang]
    body = []
    for w in words:
        body.append(w)
        body.append(filler[int(rng.integers(len(filler)))])
    return " ".join(body)


def topic_query_text(lang, topic, rng):
    words = TOPIC_WORDS[lang][topic]
    picked = rng.choice(len(words), size=2, replace=False)
    return " ".join(words[i] for i in picked)


def build_language_files(tmp_path, lang, n_topics=4, passages_per_topic=3, queries_per_topic=2, seed=0):
    """corpus/queries JSONL + qrels for one language; returns paths and id maps."""
    rng = np.random.default_rng((seed, hash(lang) % 1000))
    corpus_path = tmp_path / f"corpus_{lang}.jsonl"
    queries_path = tmp_path / f"queries_{lang}.jsonl"
    qrels_path = tmp_path / f"qrels_{lang}.txt"
    passages = []
    queries = []
    qrels_lines = []
    for topic in range(n_topics):
        for j in range(passages_per_topic):
            pid = f"{lang}-p{topic}-{j}"
            passages.append({"id": pid, "language": lang, "text": topic_passage_text(lang, topic, rng)})
        for j in range(queries_per_topic):
            qid = f"{lang}-q{topic}-{j}"
            queries.append({"id": qid, "language": lang, "text": topic_query_text(lang, topic, rng)})
            for j2 in range(passages_per_topic):
                qrels_lines.append(f"{qid} 0 {lang}-p{topic}-{j2} 1")
    corpus_path.write_text("\n".join(json.dumps(p) for p in passages) + "\n")
    queries_path.write_text("\n".join(json.dumps(q) for q in queries) + "\n")
    qrels_path.write_text("\n".join(qrels_lines) + "\n")
    return corpus_path, queries_path, qrels_path, passages, queries


def build_triples(tmp_path, lang, passages, queries, rng):
    """One triple per query: a same-topic positive and an off-topic negative."""
    path = tmp_path / f"triples_{lang}.tsv"
    by_topic = {}
    for p in passages:
        topic = p["id"].split("-")[1][1:]
        by_topic.setdefault(topic, []).append(p["id"])
    lines = []
    for q in queries:
        topic = q["id"].split("-")[1][1:]
        pos = by_topic[topic][int(rng.integers(len(by_topic[topic])))]
        other_topics = [t for t in by_topic if t != topic]
        neg_topic = other_topics[int(rng.integers(len(other_topics)))]
        neg = by_topic[neg_topic][int(rng.integers(len(by_topic[neg_topic])))]
        lines.append(f"{q['id']} {pos} {neg}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "n": 8,
        "m": 16,
        "d_out": 8,
        "d": 8,
        "n_layers": 2,
        "bottleneck": 4,
        "vocab": 64,
        "seed": 5,
        "batch_size": 2,
        "learning_rate": 0.05,
        "mask_rate": 0.3,
        "pretrain_steps": 60,
        "finetune_steps": 40,
        "extend_steps": 30,
        "n_probe": 2,
        "candidate_k": 50,
        "final_k": 5,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def per_embedding_attributes(idx) -> set:
    """The names of the index's attributes that hold one entry per embedding."""
    return {name for name, value in vars(idx).items() if np.ndim(value) and len(value) == idx.embedding_count}
