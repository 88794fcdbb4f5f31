"""The names the benchmark wraps or reads must exist, so that a refactor that
drops one fails here rather than in a benchmark run."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import bench_child  # noqa: E402
import bench_gen  # noqa: E402
import run as bench_run  # noqa: E402

from modir import cli, data, encoder, index  # noqa: E402
from modir.index import build_index  # noqa: E402


@pytest.mark.parametrize("owner,attr,name", bench_child.CALLS, ids=[name for _, _, name in bench_child.CALLS])
def test_wrapped_call_is_defined_on_its_owner(owner, attr, name):
    assert attr in owner.__dict__


def test_index_attributes_read_by_the_checks():
    idx = build_index({"p": np.array([[1.0, 2.0]])}, seed=0)
    assert idx.centroid_ids.shape == (1,)
    assert idx.centroid_count == 1
    assert idx.internal_passage("p") == 0


def test_search_calls_each_stage_once_per_query_through_the_module(monkeypatch):
    # the traced benchmark wraps both stages on modir.index and counts
    # index.candidates and index.reranked from their calls
    rng = np.random.default_rng(5)
    idx = build_index({f"p{i:02d}": rng.normal(size=(3, 4)) for i in range(40)}, seed=0)
    params = index.SearchParams(n_probe=2, candidate_k=12, final_k=4)
    firsts, reranked = [], []
    first, rerank = index.approximate_candidates, index.exact_rerank

    def counted_first(*args, **kwargs):
        firsts.append(first(*args, **kwargs))
        return firsts[-1]

    def counted_rerank(query, candidates, *args, **kwargs):
        reranked.append(list(candidates))
        return rerank(query, candidates, *args, **kwargs)

    monkeypatch.setattr(index, "approximate_candidates", counted_first)
    monkeypatch.setattr(index, "exact_rerank", counted_rerank)
    queries = rng.normal(size=(3, 2, 4))
    for query in queries:
        index.search(query, idx, params)
    assert len(firsts) == len(reranked) == len(queries)
    for candidates, ids in zip(firsts, reranked):
        assert candidates and ids == [pid for pid, _ in candidates]


def test_checkpoint_facts_read_by_the_checks(tmp_path):
    # the encode phase reads vocab_size off a loaded checkpoint, and the
    # training phases re-save a loaded checkpoint and compare the bytes
    ckpt, again = tmp_path / "model.ckpt", tmp_path / "model.ckpt.again"
    params = encoder.add_language(encoder.init_params(["en", "fr"], vocab=40, d=4, d_out=3, seed=1), "de", 2)
    encoder.save_checkpoint(params, ckpt)
    assert encoder.load_checkpoint(ckpt).vocab_size == 40
    encoder.save_checkpoint(encoder.load_checkpoint(ckpt), again)
    assert again.read_bytes() == ckpt.read_bytes()


def test_the_record_slices_the_benchmark_takes(tmp_path):
    # the index phase's check reads read_records(queries block)[:n] and each encode chunk
    # read_records(text jsonl)[chunk::chunks]; records come in file order, not id order
    rng = np.random.default_rng(3)
    ids = [f"q{i:02d}" for i in (7, 2, 9, 0, 5, 1, 8)]
    matrices = [rng.normal(size=(int(rng.integers(1, 5)), 6)) for _ in ids]
    bench_gen.write_mveb(tmp_path / "queries.mveb", ids, matrices, 6)
    head = data.read_records(tmp_path / "queries.mveb")[: bench_run.CHECK_QUERIES]
    assert [rec.id for rec in head] == ids[: bench_run.CHECK_QUERIES]
    for rec, mat in zip(head, matrices):
        assert rec.embeddings.dtype == np.float32 and rec.embeddings.tobytes() == mat.astype("<f4").tobytes()
    texts = [(f"p{i:02d}", ("en", "fr", "de")[i % 3], f"word{i} other{i}") for i in (4, 0, 3, 1, 6, 2, 5)]
    bench_gen.write_text_records(tmp_path / "text.jsonl", texts)
    records = data.read_records(tmp_path / "text.jsonl")
    for chunk, chunks in ((0, 3), (1, 3), (2, 3), (0, 1)):
        got = [(rec.id, rec.language, rec.text) for rec in records[chunk::chunks]]
        assert got == texts[chunk::chunks]


class _InputPaths(dict):
    """Every input file name maps to a path, whatever names the benchmark reads."""

    def __missing__(self, name):
        return os.path.join("inputs", name)


@pytest.mark.parametrize("workload", sorted(bench_run.WORKLOADS))
def test_cli_parses_every_command_line_the_benchmark_builds(workload, tmp_path, monkeypatch):
    argvs = []
    monkeypatch.setattr(bench_run, "run_phase", lambda kind, spec, *a, **k: argvs.append(spec.get("argv")) or {})
    wl = bench_run.WORKLOADS[workload]
    inputs = bench_run.Inputs(files=_InputPaths(), n_queries=0, exact={}, embeddings=0)
    bench_run.run_pipeline(wl, inputs, str(tmp_path), trace=False)
    shapes = set()
    for argv in filter(None, argvs):
        args = cli.build_parser().parse_args([str(a) for a in argv])  # argparse exits on a flag it does not know
        shapes.add((args.command, getattr(args, "stage", None), bool(getattr(args, "checkpoint_in", None)),
                    getattr(args, "exact", None)))
        assert args.config == os.path.join("inputs", "config.json")
        if args.command == "search":
            assert (args.k, args.nprobe, args.candidate_k) == (
                wl.search["final_k"], wl.search["n_probe"], wl.search["candidate_k"])
    assert shapes == {
        ("train", "pretrain", False, None),
        ("train", "pretrain", True, None),
        ("train", "finetune", True, None),
        ("index", None, False, None),
        ("search", None, False, False),
        ("search", None, False, True),
    }
