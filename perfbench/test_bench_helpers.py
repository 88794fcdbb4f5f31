"""Tests of the benchmark's own helpers: seeded inputs, self time, tail rule.

Run with ``python3 -m pytest perfbench/test_bench_helpers.py``.
"""

import hashlib
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_gen import (  # noqa: E402
    RetrievalSpec,
    TextSpec,
    exact_top_k,
    passage_ids,
    retrieval_corpus,
    retrieval_queries,
    text_corpus,
    write_mveb,
    write_text_records,
    write_triples,
)
from bench_stats import block_rate, tail_latency  # noqa: E402
from bench_trace import NO_PARENT, Recorder, self_time_by_name, self_times  # noqa: E402

SMALL = RetrievalSpec(passages=40, min_terms=2, max_terms=6, topics=5, topic_groups=2, mix=0.3, dim=16)
SMALL_TEXT = TextSpec(passages=30, min_words=3, max_words=9, topics=4, concepts_per_topic=10)


def _write_inputs(directory, seed) -> dict:
    rows, offsets, rng = retrieval_corpus(SMALL, seed)
    ids = passage_ids(SMALL.passages)
    write_mveb(directory / "corpus.mveb", ids, [rows[offsets[i]:offsets[i + 1]] for i in range(len(ids))], SMALL.dim)
    queries = retrieval_queries(SMALL, rows, offsets, rng, 5)
    write_mveb(directory / "queries.mveb", [f"q{i}" for i in range(5)], list(queries), SMALL.dim)
    text = text_corpus(SMALL_TEXT, seed, n_batches=2, batch_size=3)
    write_text_records(directory / "text.jsonl", text["passages"])
    write_text_records(directory / "train_queries.jsonl", text["queries"])
    write_triples(directory / "triples.tsv", text["triples"])
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_same_seed_gives_byte_identical_files(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = _write_inputs(tmp_path / "a", seed=7)
    assert first == _write_inputs(tmp_path / "b", seed=7)
    other = _write_inputs(tmp_path / "c", seed=8)
    assert all(first[name] != other[name] for name in first)


def test_finetune_batches_are_monolingual():
    text = text_corpus(SMALL_TEXT, 1, n_batches=4, batch_size=3)
    lang = {pid: language for pid, language, _ in text["passages"]}
    for b in range(4):
        batch = text["triples"][3 * b : 3 * b + 3]
        assert len({lang[pos] for _, pos, _ in batch} | {lang[neg] for _, _, neg in batch}) == 1


def test_exact_top_k_matches_a_loop():
    rows, offsets, rng = retrieval_corpus(SMALL, 5)
    queries = retrieval_queries(SMALL, rows, offsets, rng, 3)
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    for q, got in zip(queries, exact_top_k(rows * 3.0, offsets, queries, k=4, batch=2)):
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        scores = [(qn @ unit[offsets[p]:offsets[p + 1]].T).max(axis=1).sum() for p in range(SMALL.passages)]
        assert got == sorted(range(SMALL.passages), key=lambda p: (-scores[p], p))[:4]


def test_self_time_of_a_nested_tree():
    # root [0, 10] has children [1, 4] and [5, 6]; the first child has a
    # grandchild [2, 3]. Self: root 10 - 4 = 6, child 3 - 1 = 2, others whole.
    spans = [
        ["root", 0.0, 10.0, NO_PARENT, -1],
        ["a", 1.0, 4.0, 0, -1],
        ["leaf", 2.0, 3.0, 1, -1],
        ["a", 5.0, 6.0, 0, -1],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert self_time_by_name(spans) == {"root": 6.0, "a": 3.0, "leaf": 1.0}


def test_overlapping_children_are_not_counted_twice():
    spans = [
        ["root", 0.0, 10.0, NO_PARENT, -1],
        ["x", 2.0, 6.0, 0, -1],
        ["y", 4.0, 8.0, 0, -1],
        ["z", 9.0, 12.0, 0, -1],  # runs past its parent's end: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_wraps_and_restores_nested_calls():
    class Layer:
        @staticmethod
        def inner():
            time.sleep(0.002)

    def outer():
        Layer.inner()
        Layer.inner()

    holder = type("Holder", (), {"outer": staticmethod(outer)})
    rec = Recorder()
    before = Layer.__dict__["inner"]
    rec.wrap(Layer, "inner", "layer.inner", on_call=lambda a, k, r: rec.add("inner.calls"))
    rec.wrap(holder, "outer", "layer.outer")
    holder.outer()
    rec.uninstall()
    assert Layer.__dict__["inner"] is before
    assert [s[0] for s in rec.spans] == ["layer.outer", "layer.inner", "layer.inner"]
    assert [s[3] for s in rec.spans] == [NO_PARENT, 0, 0]
    assert rec.counts == {"inner.calls": 2}
    own = self_time_by_name(rec.spans)
    outer_span = rec.spans[0]
    assert own["layer.outer"] + own["layer.inner"] == pytest.approx(outer_span[2] - outer_span[1])


def test_tail_rule_at_large_n_is_p99():
    value, pct = tail_latency(list(range(1, 1001)))
    assert (value, pct) == (990, 99.0)


def test_tail_rule_at_small_n_leaves_ten_beyond():
    samples = [float(v) for v in range(60, 0, -1)]
    value, pct = tail_latency(samples)
    assert value == 50.0 and pct == pytest.approx(100 * 50 / 60)
    assert sum(v > value for v in samples) == 10
    assert tail_latency(list(range(11))) == (0, pytest.approx(100 / 11))
    with pytest.raises(ValueError):
        tail_latency(list(range(10)))


def test_block_rate_is_the_median_block():
    # Ten one-second units; the last block of two runs at half speed.
    times = [[float(i), i + 1.0] for i in range(8)] + [[8.0, 10.0], [10.0, 12.0]]
    assert block_rate([times], blocks=5) == pytest.approx(1.0)
    assert block_rate([[[0.0, 0.5]]], blocks=5) == pytest.approx(2.0)


def test_block_rate_never_spans_two_processes():
    # Two processes far apart in time: two-unit blocks at 2, 2, 1 and 1 units
    # per second. A block bridging the gap between them would read far lower.
    first = [[0.0, 0.5], [0.5, 1.0], [1.0, 1.5], [1.5, 2.0]]
    second = [[100.0, 101.0], [101.0, 102.0], [102.0, 103.0], [103.0, 104.0]]
    assert block_rate([first, second], blocks=4) == pytest.approx(1.5)
