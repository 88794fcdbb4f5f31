"""``build_index`` over a ``TermTable`` against a build over a dict of
float64 copies of the same passages.

An embedding block reaches ``build_index`` as one float32 table that is
widened to float64 a block at a time; JSONL embeddings and encoder output
reach it as a float64 table. Either way the six index files must be the
bytes that a dict of float64 matrices gives, and the build must never hold a
float64 copy of a float32 table.
"""

import json
import tracemalloc

import numpy as np
import pytest

from modir import index
from modir.cli import main
from modir.config import RunConfig
from modir.data import TermTable, read_records, tokenize, write_embedding_block
from modir.encoder import encode, init_params, save_checkpoint
from modir.errors import InvalidConfigError
from modir.index import INDEX_FILES, build_index, nearest_centroid_ids, save_index
from modir.scoring import prepare_passage


def index_files(idx, directory) -> dict:
    save_index(idx, directory)
    return {name: (directory / name).read_bytes() for name in INDEX_FILES}


def cli_index_files(tmp_path, corpus_path, *flags) -> dict:
    out = tmp_path / "cli_index"
    assert main(["index", "--corpus", str(corpus_path), "--out", str(out), *map(str, flags)]) == 0
    return {name: (out / name).read_bytes() for name in INDEX_FILES}


def float32_corpus(rng, n_passages, dim, max_terms=6) -> dict:
    """Clustered float32 passages under ids written in shuffled order."""
    centers = rng.normal(size=(8, dim))
    ids = [f"p{i:03d}" for i in rng.permutation(n_passages)]
    return {
        pid: (centers[rng.integers(8)] + 0.3 * rng.normal(size=(int(rng.integers(1, max_terms + 1)), dim))).astype(np.float32)
        for pid in ids
    }


def float64_copies(corpus: dict) -> dict:
    return {pid: np.asarray(rows, dtype=np.float64) for pid, rows in corpus.items()}


class TestSameFilesAsFloat64Copies:
    @pytest.mark.parametrize("block", [None, 7], ids=["default-blocks", "encode-blocks-of-7"])
    def test_shuffled_embedding_block(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(index, "_UNIT_BLOCK", block)
        corpus = float32_corpus(np.random.default_rng(3), 70, 5)
        path = tmp_path / "corpus.emb"
        write_embedding_block(corpus, path)
        records = read_records(path)
        assert [r.id for r in records] != sorted(corpus) and records.table.rows.dtype == np.float32
        expected = index_files(build_index(float64_copies(corpus), seed=4), tmp_path / "from_dict")
        assert index_files(build_index(records.table, seed=4), tmp_path / "from_table") == expected
        assert cli_index_files(tmp_path, path, "--seed", 4) == expected

    def test_jsonl_embeddings(self, tmp_path):
        rng = np.random.default_rng(5)
        corpus = {f"d{i}": rng.normal(size=(int(rng.integers(1, 5)), 4)) for i in range(30)}
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"id": pid, "embeddings": rows.tolist()}) + "\n" for pid, rows in corpus.items()))
        expected = index_files(build_index(corpus, seed=6), tmp_path / "from_dict")
        assert cli_index_files(tmp_path, path, "--seed", 6) == expected

    def test_text_corpus_with_checkpoint(self, tmp_path):
        cfg = RunConfig()
        params = init_params(["aa", "bb"], vocab=64, d=8, d_out=6, n_layers=1, bottleneck=3, seed=2)
        checkpoint = tmp_path / "enc.ckpt"
        save_checkpoint(params, checkpoint)
        rng = np.random.default_rng(9)
        words = ["alda", "arbo", "bela", "bordo", "cedro", "celo", "zunt", "yarn", "xeta", "wund"]
        records = [
            {"id": f"t{i:02d}", "language": ["aa", "bb"][i % 2], "text": " ".join(rng.choice(words, size=int(rng.integers(1, 6))))}
            for i in rng.permutation(25)
        ]
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        encoded = {
            r["id"]: encode(prepare_passage(tokenize(r["text"], params.vocab_size), cfg.m, r["language"]), params)
            for r in records
        }
        assert all(m.dtype == np.float64 for m in encoded.values())
        expected = index_files(build_index(encoded, seed=8), tmp_path / "from_dict")
        assert cli_index_files(tmp_path, path, "--checkpoint", checkpoint, "--seed", 8) == expected

    @pytest.mark.parametrize("block", [None, 3], ids=["default-blocks", "check-blocks-of-3"])
    def test_non_finite_value_names_the_same_passage(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(index, "_UNIT_BLOCK", block)
        corpus = float32_corpus(np.random.default_rng(11), 20, 4)
        ordered = sorted(corpus)
        corpus[ordered[12]][-1, 2] = np.nan  # a middle passage in id order
        corpus[ordered[4]][0, 0] = np.inf  # an earlier one, written later in the file
        path = tmp_path / "corpus.emb"
        write_embedding_block(corpus, path)
        with pytest.raises(InvalidConfigError) as from_dict:
            build_index(float64_copies(corpus), seed=0)
        with pytest.raises(InvalidConfigError) as from_table:
            build_index(read_records(path).table, seed=0)
        assert str(from_table.value) == str(from_dict.value) == f"passage {ordered[4]!r} contains non-finite values"
        corpus[ordered[4]][0, 0] = 0.0
        write_embedding_block(corpus, path)
        with pytest.raises(InvalidConfigError, match=f"^passage {ordered[12]!r} contains"):
            build_index(read_records(path).table, seed=0)

    @pytest.mark.parametrize("sampled", [False, True], ids=["only-unsampled", "sampled-and-earlier-unsampled"])
    def test_non_finite_value_outside_the_sample_names_the_first_passage(self, tmp_path, sampled):
        # 300 passages, so the 256-passage sample leaves some out
        corpus = float32_corpus(np.random.default_rng(13), 300, 4)
        ordered = sorted(corpus)
        in_sample = set(np.random.default_rng((0, 0)).choice(300, size=256, replace=False).tolist())
        unsampled = [i for i in range(300) if i not in in_sample]
        corpus[ordered[unsampled[2]]][0, 1] = np.nan
        corpus[ordered[unsampled[5]]][-1, 0] = -np.inf
        if sampled:
            corpus[ordered[max(in_sample)]][0, 0] = np.inf
        path = tmp_path / "corpus.emb"
        write_embedding_block(corpus, path)
        expected = f"passage {ordered[unsampled[2]]!r} contains non-finite values"
        for table in (TermTable.stack(float64_copies(corpus)), read_records(path).table):
            with pytest.raises(InvalidConfigError, match=f"^{expected}$"):
                build_index(table, seed=0)

    def test_empty_passage_in_a_table_is_named(self):
        table = TermTable(["a", "b", "c"], np.ones((3, 2), dtype=np.float32), [0, 1, 1, 3])
        with pytest.raises(InvalidConfigError, match="^passage 'b' must be a nonempty 2-d matrix$"):
            build_index(table, seed=0)


class RowSpy:
    """An in-memory float32 row table with the row source interface, which
    records how many rows each request asks for."""

    ndim = 2

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.shape = rows.shape
        self.dtype = rows.dtype
        self.requests = []

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        out = self.rows[key]
        self.requests.append(out.shape[0])
        return out

    def __array__(self, dtype=None, copy=None):
        self.requests.append(self.shape[0])
        return self.rows if dtype is None else self.rows.astype(dtype)


def test_build_asks_for_one_block_of_rows_at_a_time(tmp_path):
    # 30,000 rows of dim 8 make 256 centroids and 8 assignment blocks of 3,750 rows
    rng = np.random.default_rng(2)
    n_passages, terms, dim = 10_000, 3, 8
    rows = (rng.normal(size=(64, dim))[rng.integers(64, size=n_passages * terms)]
            + 0.2 * rng.normal(size=(n_passages * terms, dim))).astype(np.float32)
    ids, offsets = [f"p{i:05d}" for i in range(n_passages)], np.arange(0, rows.shape[0] + 1, terms)
    spy = RowSpy(rows)
    idx = build_index(TermTable(ids, spy, offsets), seed=3)
    assignment_block = index._row_blocks(rows.shape[0], np.unique(idx.centroids, axis=0).shape[0])[0].stop
    sample = index._SAMPLE_PASSAGES * terms
    assert max(spy.requests) <= max(assignment_block, index._UNIT_BLOCK, sample) < rows.shape[0]
    assert sum(spy.requests) == sample + 2 * rows.shape[0]  # the sample once, then every row twice
    plain = build_index(TermTable(ids, rows, offsets), seed=3)
    assert index_files(idx, tmp_path / "spied") == index_files(plain, tmp_path / "plain")


def test_float32_assignment_blocks_equal_float64_blocks():
    # 2,000 distinct centroids make blocks of at most 500 rows: nine blocks of 500
    rng = np.random.default_rng(21)
    vectors = rng.normal(size=(4_500, 3)).astype(np.float32)
    centroids = rng.normal(size=(2_000, 3)).astype(np.float32)
    got = nearest_centroid_ids(vectors, centroids)
    assert np.array_equal(got, nearest_centroid_ids(vectors.astype(np.float64), centroids))


def test_build_never_holds_a_float64_copy_of_a_float32_table():
    # 30,000 passages of 4 rows, dim 64: the float64 copy is 61 MB. The build's own
    # buffers (an 8 MB distance block, one float64 row block, the codes)
    # stay below it; stacking the table in float64 would not.
    rng = np.random.default_rng(1)
    n_passages, terms, dim = 30_000, 4, 64
    rows = (rng.normal(size=(256, dim))[rng.integers(256, size=n_passages * terms)]
            + 0.2 * rng.normal(size=(n_passages * terms, dim))).astype(np.float32)
    table = TermTable([f"p{i:05d}" for i in range(n_passages)], rows, np.arange(0, rows.shape[0] + 1, terms))
    float64_copy = rows.size * 8
    tracemalloc.start()
    try:
        idx = build_index(table, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert idx.embedding_count == rows.shape[0]
    assert peak < float64_copy, f"build_index peaked at {peak / 1e6:.1f} MB, a float64 copy is {float64_copy / 1e6:.1f} MB"
