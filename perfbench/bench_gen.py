"""Seeded input generators for the benchmark workloads.

Everything here depends on numpy and the standard library only, so the
inputs do not change when the package under test changes. The same seed and
spec always give byte-identical files.

Retrieval corpora model overlapping topics: topic centres are drawn around a
smaller set of group centres, each topic owns a small vocabulary of word
vectors, and every term is a noisy copy of a word from the passage's primary
topic or, with probability ``mix``, from its secondary topic. Queries are
noisy resamples of one passage's terms, so each has a clear but not trivial
top 10 and the first stage can miss part of it.

Text corpora (for the encoder phases) are three synthetic languages that
share concepts: a concept renders as a different word in each language.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

MVEB_MAGIC = b"MVEB"


# Geometry of the embedding corpora: noise added to a unit vector at each
# level (topic around its group, word around its topic, term around its word).
WORDS_PER_TOPIC = 64
TOPIC_NOISE = 0.8
WORD_NOISE = 0.6
TERM_NOISE = 0.35
QUERY_TERMS = 32  # RunConfig.n: a query is padded to 32 positions

LANGUAGES = ("en", "fr", "de")
QUERY_WORDS = (8, 24)  # a training query takes this many of its passage's words


@dataclass(frozen=True)
class RetrievalSpec:
    """Shape of a generated embedding corpus and its query stream."""

    passages: int
    min_terms: int
    max_terms: int
    topics: int
    topic_groups: int
    mix: float  # share of a passage's terms drawn from its secondary topic
    dim: int = 128


@dataclass(frozen=True)
class TextSpec:
    """Shape of a generated multilingual text corpus for the encoder."""

    passages: int
    min_words: int
    max_words: int
    topics: int = 24
    concepts_per_topic: int = 40
    mix: float = 0.2


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def passage_ids(count: int) -> list[str]:
    """Zero-padded decimal ids, so string order equals numeric order."""
    width = len(str(max(count - 1, 0)))
    return [str(i).zfill(width) for i in range(count)]


def retrieval_corpus(spec: RetrievalSpec, seed: int):
    """(float32 unit rows, per-passage row offsets, generator).

    The generator is returned so the query stream continues the same seeded
    sequence.
    """
    rng = np.random.default_rng((seed, 1))
    groups = _unit(rng.standard_normal((spec.topic_groups, spec.dim)))
    topic_group = rng.integers(spec.topic_groups, size=spec.topics)
    topics = _unit(groups[topic_group] + TOPIC_NOISE * _unit(rng.standard_normal((spec.topics, spec.dim))))
    words = _unit(
        topics[:, None, :]
        + WORD_NOISE * _unit(rng.standard_normal((spec.topics, WORDS_PER_TOPIC, spec.dim)))
    ).astype(np.float32)
    lengths = rng.integers(spec.min_terms, spec.max_terms + 1, size=spec.passages)
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    primary = np.repeat(rng.integers(spec.topics, size=spec.passages), lengths)
    secondary = np.repeat(rng.integers(spec.topics, size=spec.passages), lengths)
    total = int(offsets[-1])
    term_topic = np.where(rng.random(total) < spec.mix, secondary, primary)
    term_word = rng.integers(WORDS_PER_TOPIC, size=total)
    noise = _unit(rng.standard_normal((total, spec.dim), dtype=np.float32))
    rows = _unit(words[term_topic, term_word] + np.float32(TERM_NOISE) * noise)
    return rows, offsets, rng


def retrieval_queries(spec: RetrievalSpec, rows, offsets, rng, count: int) -> np.ndarray:
    """(count, query_terms, dim) float32: noisy resamples of random passages."""
    out = np.empty((count, QUERY_TERMS, spec.dim), dtype=np.float32)
    for i in range(count):
        p = int(rng.integers(len(offsets) - 1))
        lo, hi = int(offsets[p]), int(offsets[p + 1])
        picked = rows[lo + rng.integers(hi - lo, size=QUERY_TERMS)].astype(np.float64)
        out[i] = _unit(picked + TERM_NOISE * _unit(rng.standard_normal((QUERY_TERMS, spec.dim))))
    return out


def write_mveb(path, ids, matrices, dim: int):
    """Write ``ids`` with their float32 row blocks in the MVEB embedding-block
    layout: magic, u32 version 1, u32 dim, u32 count, then per record a u16
    id length, the UTF-8 id, a u32 row count and the rows."""
    out = bytearray(MVEB_MAGIC)
    out += struct.pack("<III", 1, dim, len(ids))
    for rid, mat in zip(ids, matrices):
        raw = rid.encode("utf-8")
        out += struct.pack("<H", len(raw)) + raw + struct.pack("<I", mat.shape[0])
        out += np.ascontiguousarray(mat, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(out)


def exact_top_k(rows, offsets, queries, k: int, batch: int = 4) -> list[list[int]]:
    """Brute-force MaxSim (cosine) top k, as passage positions with ties to
    the lower position, over the uncompressed rows.

    Passages of equal length are stacked, so a batch of queries costs one
    matmul and one max over a fixed axis per distinct passage length.
    """
    rows = _unit(np.asarray(rows, dtype=np.float32))
    lengths = np.diff(offsets)
    groups = []
    for length in np.unique(lengths):
        members = np.nonzero(lengths == length)[0]
        picked = (np.asarray(offsets)[members][:, None] + np.arange(length)).reshape(-1)
        groups.append((members, rows[picked]))
    queries = _unit(np.asarray(queries, dtype=np.float32))
    tie = np.arange(len(lengths))
    out = []
    for start in range(0, len(queries), batch):
        block = queries[start : start + batch]
        b, terms = block.shape[0], block.shape[1]
        flat = block.reshape(-1, rows.shape[1]).T
        scores = np.empty((b, len(lengths)), dtype=np.float32)
        for members, stacked in groups:
            sims = (stacked @ flat).reshape(len(members), -1, b, terms)
            scores[:, members] = sims.max(axis=1).sum(axis=2).T
        for j in range(b):
            out.append(np.lexsort((tie, -scores[j]))[:k].tolist())
    return out


# ---------------------------------------------------------------------------
# Text


_SYLLABLES = {
    "en": ("th", "er", "an", "st", "or", "in", "ly", "ed", "ow", "ar", "ch", "ea"),
    "fr": ("ou", "ai", "eu", "re", "qu", "on", "ez", "ie", "au", "an", "oi", "ge"),
    "de": ("sch", "ei", "ie", "en", "ung", "ch", "au", "st", "er", "zu", "kt", "ig"),
}


def _lexicon(rng, languages, concepts: int) -> dict:
    """Per language, one distinct lowercase word per concept."""
    lexicon = {}
    for lang in languages:
        syl = _SYLLABLES.get(lang, _SYLLABLES["en"])
        words, seen = [], set()
        while len(words) < concepts:
            parts = rng.integers(len(syl), size=int(rng.integers(2, 5)))
            word = "".join(syl[p] for p in parts)
            if word not in seen:
                seen.add(word)
                words.append(word)
        lexicon[lang] = words
    return lexicon


def text_corpus(spec: TextSpec, seed: int, n_batches: int, batch_size: int) -> dict:
    """Passages and training triples as plain Python data.

    Returns ``{"passages": [(id, lang, text)], "queries": [(id, lang, text)],
    "triples": [(qid, pos_id, neg_id)]}``.
    Triples come in ``n_batches`` runs of ``batch_size`` that share one
    language, since a finetune batch is monolingual. A triple's query is a
    word subset of its positive passage; the hard negative shares the
    positive's topic and language whenever one exists.
    """
    rng = np.random.default_rng((seed, 2))
    n_concepts = spec.topics * spec.concepts_per_topic
    lexicon = _lexicon(rng, LANGUAGES, n_concepts)
    zipf = 1.0 / np.arange(1, spec.concepts_per_topic + 1)
    zipf /= zipf.sum()
    ids = passage_ids(spec.passages)
    passages, words_of, topic_of, lang_of = [], [], [], []
    for pid in ids:
        lang = LANGUAGES[int(rng.integers(len(LANGUAGES)))]
        topic = int(rng.integers(spec.topics))
        n_words = int(rng.integers(spec.min_words, spec.max_words + 1))
        topic_per_word = np.where(rng.random(n_words) < spec.mix, rng.integers(spec.topics, size=n_words), topic)
        concepts = topic_per_word * spec.concepts_per_topic + rng.choice(spec.concepts_per_topic, size=n_words, p=zipf)
        words = [lexicon[lang][c] for c in concepts]
        passages.append((pid, lang, " ".join(words)))
        words_of.append(words)
        topic_of.append(topic)
        lang_of.append(lang)

    by_lang: dict = {}
    by_group: dict = {}
    for i, (topic, lang) in enumerate(zip(topic_of, lang_of)):
        by_lang.setdefault(lang, []).append(i)
        by_group.setdefault((topic, lang), []).append(i)

    def query_from(i, qid):
        words = words_of[i]
        lo, hi = QUERY_WORDS
        take = rng.choice(len(words), size=min(len(words), int(rng.integers(lo, hi + 1))), replace=False)
        return (qid, lang_of[i], " ".join(words[t] for t in np.sort(take)))

    queries, triples = [], []
    langs = sorted(by_lang)
    for b in range(n_batches):
        pool = by_lang[langs[int(rng.integers(len(langs)))]]
        for j in range(batch_size):
            pos = pool[int(rng.integers(len(pool)))]
            group = by_group[(topic_of[pos], lang_of[pos])]
            if len(group) > 1:
                neg = pos
                while neg == pos:
                    neg = group[int(rng.integers(len(group)))]
            else:
                neg = pool[(pool.index(pos) + 1) % len(pool)]
            qid = f"t{b * batch_size + j:05d}"
            queries.append(query_from(pos, qid))
            triples.append((qid, ids[pos], ids[neg]))
    return {"passages": passages, "queries": queries, "triples": triples}


def write_text_records(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rid, lang, text in records:
            fh.write(json.dumps({"id": rid, "language": lang, "text": text}) + "\n")


def write_triples(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for triple in triples:
            fh.write(" ".join(triple) + "\n")
