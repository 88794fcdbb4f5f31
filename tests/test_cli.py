import json
import logging
import warnings

import numpy as np
import pytest

from modir import cli, data, encoder, evaluation, index as index_mod
from modir.cli import main
from modir.config import RunConfig
from modir.data import write_embedding_block
from modir.encoder import load_checkpoint
from modir.errors import InvalidConfigError, NonFiniteError
from modir.index import build_index, save_index
from tests.conftest import build_language_files, build_triples, per_embedding_attributes


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_stderr(capsys):
    return capsys.readouterr().err.strip()


@pytest.fixture
def pipeline(tmp_path, small_config):
    """Pretrained + finetuned checkpoint over two languages, plus data files."""
    config_path, cfg = small_config
    corpus_a, queries_a, qrels_a, passages_a, qs_a = build_language_files(tmp_path, "aa")
    corpus_b, queries_b, qrels_b, passages_b, qs_b = build_language_files(tmp_path, "bb")
    both_corpus = tmp_path / "corpus_all.jsonl"
    both_corpus.write_text(corpus_a.read_text() + corpus_b.read_text())
    triples_a = build_triples(tmp_path, "aa", passages_a, qs_a, np.random.default_rng(3))

    ck_pre = tmp_path / "pretrain.ckpt"
    assert run_cli("train", "--stage", "pretrain", "--corpus", both_corpus,
                   "--checkpoint-out", ck_pre, "--config", config_path) == 0
    ck_ft = tmp_path / "finetune.ckpt"
    assert run_cli("train", "--stage", "finetune", "--corpus", corpus_a,
                   "--queries", queries_a, "--triples", triples_a,
                   "--checkpoint-in", ck_pre, "--checkpoint-out", ck_ft,
                   "--config", config_path) == 0
    return {
        "config": config_path,
        "cfg": cfg,
        "corpus_a": corpus_a,
        "corpus_all": both_corpus,
        "queries_a": queries_a,
        "qrels_a": qrels_a,
        "triples_a": triples_a,
        "ck_pre": ck_pre,
        "ck_ft": ck_ft,
        "tmp": tmp_path,
    }


class TestTrain:
    @pytest.mark.parametrize("stage", ["pretrain", "extend"])
    def test_a_language_name_a_checkpoint_cannot_hold_is_one_error_before_any_step(
        self, tmp_path, small_config, capsys, monkeypatch, stage
    ):
        config_path, cfg = small_config
        name = "x" * 70_000
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"id": "p0", "language": name, "text": "alpha beta gamma"}) + "\n")
        extend = []
        if stage == "extend":
            dims = {key: cfg[key] for key in ("vocab", "d", "d_out", "n_layers", "bottleneck")}
            encoder.save_checkpoint(encoder.init_params(["aa"], **dims), tmp_path / "in.ckpt")
            extend = ["--checkpoint-in", tmp_path / "in.ckpt", "--lang", name]
        steps = []
        monkeypatch.setattr(encoder, "mlm_step", lambda *args: steps.append(args))
        out = tmp_path / "out.ckpt"
        code = run_cli("train", "--stage", stage, "--corpus", corpus, *extend, "--checkpoint-out", out,
                       "--config", config_path)
        assert code == 2
        err = read_stderr(capsys).splitlines()
        assert len(err) == 1
        assert err[0] == f"error[invalid-config]: language name {'x' * 40!r}... is 70000 UTF-8 bytes; " \
                         "a u16 length field holds at most 65535"
        assert not steps and not out.exists()

    def test_pretrain_writes_checkpoint_and_report(self, pipeline):
        ck = load_checkpoint(pipeline["ck_pre"])
        assert ck.stage == "pretrain"
        assert ck.languages() == ["aa", "bb"]
        report = pipeline["tmp"] / "pretrain.ckpt.losses.csv"
        lines = report.read_text().splitlines()
        assert lines[0] == "step,loss"
        assert len(lines) == 1 + pipeline["cfg"]["pretrain_steps"]

    def test_finetune_checkpoint_moves_stage(self, pipeline):
        ck = load_checkpoint(pipeline["ck_ft"])
        assert ck.stage == "finetune"

    def test_zero_finetune_steps_keeps_pretrain_parameters(self, pipeline, tmp_path):
        cfg = dict(pipeline["cfg"], finetune_steps=0)
        config0 = tmp_path / "cfg0.json"
        config0.write_text(json.dumps(cfg))
        out = tmp_path / "ft0.ckpt"
        assert run_cli("train", "--stage", "finetune", "--corpus", pipeline["corpus_a"],
                       "--queries", pipeline["queries_a"], "--triples", pipeline["triples_a"],
                       "--checkpoint-in", pipeline["ck_pre"], "--checkpoint-out", out,
                       "--config", config0) == 0
        a = load_checkpoint(pipeline["ck_pre"])
        b = load_checkpoint(out)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.w_out, b.w_out)
        for la, lb in zip(a.shared_layers, b.shared_layers):
            np.testing.assert_array_equal(la.w_self, lb.w_self)

    def test_extend_adds_language(self, pipeline, tmp_path):
        corpus_c, _, _, _, _ = build_language_files(tmp_path, "cc", seed=9)
        # reuse bb words for cc? build_language_files only knows aa/bb topics
        out = tmp_path / "extend.ckpt"
        assert run_cli("train", "--stage", "extend", "--corpus", corpus_c, "--lang", "cc",
                       "--checkpoint-in", pipeline["ck_ft"], "--checkpoint-out", out,
                       "--config", pipeline["config"]) == 0
        ck = load_checkpoint(out)
        assert "cc" in ck.languages()
        assert ck.post_hoc == {"cc"}
        base = load_checkpoint(pipeline["ck_ft"])
        np.testing.assert_array_equal(ck.w_out, base.w_out)
        np.testing.assert_array_equal(ck.embedding, base.embedding)

    def test_finetune_without_checkpoint_fails(self, pipeline, capsys):
        code = run_cli("train", "--stage", "finetune", "--corpus", pipeline["corpus_a"],
                       "--queries", pipeline["queries_a"], "--triples", pipeline["triples_a"],
                       "--checkpoint-out", pipeline["tmp"] / "x.ckpt", "--config", pipeline["config"])
        assert code == 2
        assert read_stderr(capsys).startswith("error[invalid-config]")

    def test_triple_with_unknown_passage_names_it(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_triples.tsv"
        bad.write_text("aa-q0-0 aa-p0-0 no-such-passage\n")
        code = run_cli("train", "--stage", "finetune", "--corpus", pipeline["corpus_a"],
                       "--queries", pipeline["queries_a"], "--triples", bad,
                       "--checkpoint-in", pipeline["ck_pre"], "--checkpoint-out", tmp_path / "x.ckpt",
                       "--config", pipeline["config"])
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[unknown-passage]")
        assert "no-such-passage" in err

    def test_malformed_triple_line_reports_number(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_triples.tsv"
        bad.write_text("aa-q0-0 aa-p0-0 aa-p1-0\nonly two\n")
        code = run_cli("train", "--stage", "finetune", "--corpus", pipeline["corpus_a"],
                       "--queries", pipeline["queries_a"], "--triples", bad,
                       "--checkpoint-in", pipeline["ck_pre"], "--checkpoint-out", tmp_path / "x.ckpt",
                       "--config", pipeline["config"])
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[parse]") and "line 2" in err

    def test_unregistered_language_fails(self, pipeline, tmp_path, capsys):
        alien = tmp_path / "alien.jsonl"
        alien.write_text('{"id": "z1", "language": "zz", "text": "zunt zerk"}\n')
        code = run_cli("index", "--corpus", alien, "--checkpoint", pipeline["ck_ft"],
                       "--out", tmp_path / "zidx", "--config", pipeline["config"])
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[unknown-language]") and "zz" in err

    def test_determinism_byte_identical_checkpoints(self, pipeline, tmp_path):
        out1, out2 = tmp_path / "d1.ckpt", tmp_path / "d2.ckpt"
        for out in (out1, out2):
            assert run_cli("train", "--stage", "pretrain", "--corpus", pipeline["corpus_all"],
                           "--checkpoint-out", out, "--config", pipeline["config"], "--seed", 5) == 0
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), -5.0])
    def test_a_learning_rate_that_is_not_finite_and_non_negative_is_one_error_line(
        self, tmp_path, small_config, capsys, rate
    ):
        _, cfg = small_config
        config = tmp_path / "bad_rate.json"
        config.write_text(json.dumps(dict(cfg, learning_rate=rate)))  # NaN and Infinity literals
        corpus, _, _, _, _ = build_language_files(tmp_path, "aa")
        out = tmp_path / "model.ckpt"
        out.write_bytes(b"an earlier checkpoint")
        code = run_cli("train", "--stage", "pretrain", "--corpus", corpus, "--checkpoint-out", out, "--config", config)
        assert code == 2
        assert read_stderr(capsys) == f"error[invalid-config]: learning_rate must be a finite number >= 0, got {rate}"
        assert out.read_bytes() == b"an earlier checkpoint"

    @staticmethod
    def diverge(tmp_path, cfg, rate, steps):
        """Train with a learning rate far too large over an earlier file at
        --checkpoint-out; returns the exit code and that file."""
        config = tmp_path / "huge_rate.json"
        config.write_text(json.dumps(dict(cfg, learning_rate=rate, pretrain_steps=steps)))
        corpus, _, _, _, _ = build_language_files(tmp_path, "aa")
        out = tmp_path / "model.ckpt"
        out.write_bytes(b"an earlier checkpoint")
        code = run_cli("train", "--stage", "pretrain", "--corpus", corpus, "--checkpoint-out", out, "--config", config)
        return code, out

    @staticmethod
    def assert_nothing_written(tmp_path, out):
        assert out.read_bytes() == b"an earlier checkpoint"
        assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("model")) == ["model.ckpt"]

    # "error": a numpy warning would raise instead of printing beside the error line
    @pytest.mark.filterwarnings("error")
    def test_a_diverged_run_is_one_error_line_and_keeps_the_earlier_checkpoint(self, tmp_path, small_config, capsys):
        # the first update makes the parameters non-finite, so step 2's loss is NaN
        code, out = self.diverge(tmp_path, small_config[1], 1e300, 20)
        assert code == 2
        assert read_stderr(capsys) == (
            "error[non-finite]: pretrain step 2: the loss is nan; a smaller learning_rate may keep it finite"
        )
        self.assert_nothing_written(tmp_path, out)

    @pytest.mark.filterwarnings("error")
    def test_an_infinite_loss_with_finite_parameters_is_one_error_line(self, tmp_path, small_config, capsys):
        # a probability underflows to 0, so np.log gives an infinite loss while
        # every parameter stays finite
        code, out = self.diverge(tmp_path, small_config[1], 1e10, 20)
        assert code == 2
        assert read_stderr(capsys) == (
            "error[non-finite]: pretrain step 2: the loss is inf; a smaller learning_rate may keep it finite"
        )
        self.assert_nothing_written(tmp_path, out)

    def test_a_non_finite_error_inside_a_step_names_the_stage_and_step(self, pipeline, tmp_path, capsys, monkeypatch):
        real_step, calls = encoder.finetune_step, []

        def third_step_diverges(batch, params, lr):
            calls.append(1)
            if len(calls) == 3:
                raise NonFiniteError("similarity scores must be finite")
            return real_step(batch, params, lr)

        monkeypatch.setattr(encoder, "finetune_step", third_step_diverges)
        out = tmp_path / "model.ckpt"
        out.write_bytes(b"an earlier checkpoint")
        code = run_cli("train", "--stage", "finetune", "--corpus", pipeline["corpus_a"],
                       "--queries", pipeline["queries_a"], "--triples", pipeline["triples_a"],
                       "--checkpoint-in", pipeline["ck_pre"], "--checkpoint-out", out, "--config", pipeline["config"])
        assert code == 2
        assert read_stderr(capsys) == "error[non-finite]: finetune step 3: similarity scores must be finite"
        self.assert_nothing_written(tmp_path, out)

class TestIndexCmd:
    @pytest.mark.parametrize("kind", ["passage", "query"])
    def test_text_records_encode_to_the_bits_of_encode_in_record_order(self, pipeline, kind):
        params = load_checkpoint(pipeline["ck_ft"])
        cfg = RunConfig(**pipeline["cfg"])
        records = data.read_records(pipeline["corpus_all"])
        out = cli._encode_corpus(records, params, cfg, kind)
        assert list(out) == [rec.id for rec in records]
        seqs = [cli._prepare_record(rec, cfg, params.vocab_size, kind) for rec in records]
        assert max(list(map(len, seqs)).count(n) for n in set(map(len, seqs))) > 1  # a bucket stacks
        for rec, seq in zip(records, seqs):
            assert np.array_equal(out[rec.id], encoder.encode(seq, params))

    def test_index_from_checkpoint(self, pipeline, capsys):
        out = pipeline["tmp"] / "idx"
        assert run_cli("index", "--corpus", pipeline["corpus_a"], "--checkpoint", pipeline["ck_ft"],
                       "--out", out, "--config", pipeline["config"]) == 0
        stdout = capsys.readouterr().out
        assert "embeddings=" in stdout and "bits_per_embedding=" in stdout
        assert (out / "meta.json").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["bits_per_embedding"] == 2 * meta["dim"] + meta["id_bits"]

    def test_index_from_embedding_block_without_checkpoint(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        block = tmp_path / "corpus.emb"
        write_embedding_block({f"p{i}": rng.normal(size=(4, 8)).astype(np.float32) for i in range(10)}, block)
        out = tmp_path / "idx"
        assert run_cli("index", "--corpus", block, "--out", out, "--config", config_path) == 0
        assert (out / "codes.bin").exists()

    def test_list_size_line(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        a, b = np.zeros((1, 4), dtype=np.float32), np.full((1, 4), 10.0, dtype=np.float32)
        block = tmp_path / "corpus.emb"
        write_embedding_block({"p0": np.vstack([a, a]), "p1": np.vstack([a, b]), "p2": np.vstack([b, b])}, block)
        with pytest.warns(index_mod.DuplicateCentroidWarning):  # 4 centroids, 2 distinct rows
            assert run_cli("index", "--corpus", block, "--out", tmp_path / "idx", "--config", config_path) == 0
        sizes = np.bincount(index_mod.load_index(tmp_path / "idx").centroid_ids, minlength=4)
        lines = capsys.readouterr().out.splitlines()
        expect = f"list_size max={sizes.max()} mean={sizes.mean():.2f} empty_centroids={int((sizes == 0).sum())}"
        assert lines[1] == expect
        assert sizes.sum() == 6 and sizes.max() == 3 and (sizes == 0).sum() == 2

    def test_truncated_embedding_block_is_format_error(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        block = tmp_path / "corpus.emb"
        write_embedding_block({f"p{i}": np.ones((4, 8), dtype=np.float32) for i in range(3)}, block)
        block.write_bytes(block.read_bytes()[:-5])
        assert run_cli("index", "--corpus", block, "--out", tmp_path / "idx", "--config", config_path) == 2
        err = read_stderr(capsys)
        assert err.startswith("error[format]") and "corpus.emb" in err and "\n" not in err

    @pytest.mark.parametrize("suffix", ["jsonl", "mveb"])
    def test_a_passage_id_a_run_file_cannot_hold_fails_before_the_build(
        self, tmp_path, small_config, capsys, monkeypatch, suffix
    ):
        # "doc 0" and "z 9" would not read back from a run line; the first in id order is named
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        out = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), out)
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        corpus = {pid: rng.normal(size=(4, 8)).astype(np.float32) for pid in ["z 9", "p1", "doc 0", "p0"]}
        path = tmp_path / f"corpus.{suffix}"
        if suffix == "mveb":
            write_embedding_block(corpus, path)
        else:
            path.write_text("".join(json.dumps({"id": pid, "embeddings": m.tolist()}) + "\n" for pid, m in corpus.items()))
        calls = []
        monkeypatch.setattr(index_mod, "build_index", lambda *a, **k: calls.append(a))
        assert run_cli("index", "--corpus", path, "--out", out, "--config", config_path) == 2
        err = read_stderr(capsys).splitlines()
        assert err == ["error[invalid-config]: id 'doc 0' is empty or holds whitespace; a run file cannot hold it"]
        assert calls == []
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_a_lone_surrogate_id_is_a_parse_error_naming_the_line(self, tmp_path, small_config, capsys):
        # JSON can escape a lone surrogate, which UTF-8 (and so passages.bin) cannot hold
        config_path, _ = small_config
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "embeddings": [[1, 2]]}\n{"id": "\\ud800", "embeddings": [[3, 4]]}\n')
        assert run_cli("index", "--corpus", corpus, "--out", tmp_path / "idx", "--config", config_path) == 2
        assert read_stderr(capsys).splitlines() == ["error[parse]: line 2: 'id' '\\ud800' is not encodable as UTF-8"]
        assert not (tmp_path / "idx").exists()

    def test_ragged_embedding_rows_are_a_parse_error(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        corpus = tmp_path / "ragged.jsonl"
        corpus.write_text('{"id": "a", "embeddings": [[1, 2], [3, 4]]}\n{"id": "b", "embeddings": [[1, 2], [3]]}\n')
        assert run_cli("index", "--corpus", corpus, "--out", tmp_path / "idx", "--config", config_path) == 2
        err = read_stderr(capsys)
        assert err.startswith("error[parse]: line 2:") and "\n" not in err

    @pytest.mark.parametrize("line", ["5", '"xidx"', '["id", "a"]', "null"], ids=["number", "string", "list", "null"])
    def test_a_line_that_is_not_an_object_is_a_parse_error(self, tmp_path, small_config, capsys, line):
        config_path, _ = small_config
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "embeddings": [[1, 2]]}\n' + line + "\n")
        assert run_cli("index", "--corpus", corpus, "--out", tmp_path / "idx", "--config", config_path) == 2
        err = read_stderr(capsys)
        assert err.startswith("error[parse]: line 2:") and "\n" not in err
        assert not (tmp_path / "idx").exists()

    def test_zero_width_embedding_rows_are_a_parse_error(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "embeddings": [[]]}\n')
        assert run_cli("index", "--corpus", corpus, "--out", tmp_path / "idx", "--config", config_path) == 2
        assert read_stderr(capsys).startswith("error[parse]: line 1:")
        assert not (tmp_path / "idx").exists()

    def test_a_value_beyond_float32_is_one_error_and_no_index(self, tmp_path, small_config, capsys):
        # 1e39 is finite in JSON and float64, but the index stores float32, where it is inf
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        corpus = {f"p{i}": rng.normal(size=(3, 4)) for i in range(6)}
        corpus["p2"][1, 3] = 1e39
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"id": pid, "embeddings": m.tolist()}) + "\n" for pid, m in corpus.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("index", "--corpus", path, "--out", tmp_path / "idx", "--config", config_path) == 2
        assert read_stderr(capsys).splitlines() == [
            "error[invalid-config]: passage 'p2' contains a finite value beyond float32's range"
        ]
        assert not (tmp_path / "idx").exists()

    def test_dim_zero_embedding_block_is_a_format_error(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        block = tmp_path / "corpus.emb"
        block.write_bytes(b"MVEB" + (1).to_bytes(4, "little") + bytes(4) + (1).to_bytes(4, "little")
                          + (1).to_bytes(2, "little") + b"a" + (2).to_bytes(4, "little"))
        assert run_cli("index", "--corpus", block, "--out", tmp_path / "idx", "--config", config_path) == 2
        err = read_stderr(capsys)
        assert err.startswith("error[format]") and "dim 0" in err and "\n" not in err
        assert not (tmp_path / "idx").exists()

    def test_text_corpus_without_checkpoint_fails(self, pipeline, capsys):
        code = run_cli("index", "--corpus", pipeline["corpus_a"], "--out", pipeline["tmp"] / "idx2",
                       "--config", pipeline["config"])
        assert code == 2
        assert read_stderr(capsys).startswith("error[invalid-config]")

    def test_rebuild_same_seed_identical_directory(self, pipeline, tmp_path):
        outs = [tmp_path / "ia", tmp_path / "ib"]
        for out in outs:
            assert run_cli("index", "--corpus", pipeline["corpus_a"], "--checkpoint", pipeline["ck_ft"],
                           "--out", out, "--config", pipeline["config"]) == 0
        files_a = sorted(p.name for p in outs[0].iterdir())
        files_b = sorted(p.name for p in outs[1].iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.fixture
def indexed(pipeline):
    out = pipeline["tmp"] / "index_a"
    assert run_cli("index", "--corpus", pipeline["corpus_a"], "--checkpoint", pipeline["ck_ft"],
                   "--out", out, "--config", pipeline["config"]) == 0
    return dict(pipeline, index=out)


class TestSearchCmd:
    def test_run_file_ranks_contiguously(self, indexed):
        run_path = indexed["tmp"] / "a.run"
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", run_path,
                       "--config", indexed["config"], "--k", 5) == 0
        by_query = {}
        for line in run_path.read_text().splitlines():
            qid, q0, pid, rank, score, tag = line.split()
            assert q0 == "Q0" and tag == "modir"
            by_query.setdefault(qid, []).append(int(rank))
        for ranks in by_query.values():
            assert ranks == list(range(1, len(ranks) + 1))

    def test_k_larger_than_corpus_returns_all(self, indexed):
        run_path = indexed["tmp"] / "big.run"
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", run_path,
                       "--config", indexed["config"], "--k", 999,
                       "--nprobe", 999999, "--candidate-k", 999999) == 2  # nprobe > |C| is invalid
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", run_path,
                       "--config", indexed["config"], "--k", 999, "--candidate-k", 999) == 0
        lines = run_path.read_text().splitlines()
        n_passages = 12  # 4 topics x 3 passages
        n_queries = 8
        assert len(lines) == n_passages * n_queries

    def test_exact_flag_matches_full_probe_search(self, indexed):
        exact_run = indexed["tmp"] / "exact.run"
        full_run = indexed["tmp"] / "full.run"
        meta = json.loads((indexed["index"] / "meta.json").read_text())
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", exact_run,
                       "--config", indexed["config"], "--k", 12, "--exact") == 0
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", full_run,
                       "--config", indexed["config"], "--k", 12,
                       "--nprobe", meta["centroid_count"], "--candidate-k", 999) == 0
        assert exact_run.read_bytes() == full_run.read_bytes()

    def test_timing_summary(self, indexed, capsys):
        run_path = indexed["tmp"] / "t.run"
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", run_path,
                       "--config", indexed["config"], "--timing") == 0
        assert "latency_ms" in capsys.readouterr().out

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    def test_one_timed_unit_per_query(self, indexed, monkeypatch, exact):
        # the benchmark times each query as one call of this function
        owner, name = (evaluation, "brute_force_search") if exact else (index_mod, "search")
        original = getattr(owner, name)
        calls = []
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(1) or original(*a, **k))
        run_path = indexed["tmp"] / "unit.run"
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", run_path, "--config", indexed["config"],
                       *(["--exact"] if exact else [])) == 0
        n_queries = 8
        assert len(calls) == n_queries
        assert len({line.split()[0] for line in run_path.read_text().splitlines()}) == n_queries

    def test_dim_mismatch_names_both_dims(self, indexed, tmp_path, capsys):
        wrong = tmp_path / "wrong.emb"
        write_embedding_block({"q": np.ones((2, 5), dtype=np.float32)}, wrong)
        code = run_cli("search", "--index", indexed["index"], "--queries", wrong,
                       "--out", tmp_path / "w.run", "--config", indexed["config"])
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[dim-mismatch]")
        assert "5" in err and "8" in err

    def test_truncated_index_is_format_error(self, tmp_path, small_config, capsys):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        codes = idx_dir / "codes.bin"
        codes.write_bytes(codes.read_bytes()[:-1])
        queries = tmp_path / "queries.emb"
        write_embedding_block({"q": rng.normal(size=(2, 8)).astype(np.float32)}, queries)
        code = run_cli("search", "--index", idx_dir, "--queries", queries,
                       "--out", tmp_path / "t.run", "--config", config_path)
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[format]") and "codes.bin" in err

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    @pytest.mark.parametrize("queries", ["jsonl-nan", "jsonl-infinity", "block-nan"])
    def test_non_finite_query_is_one_error_and_no_run_file(self, tmp_path, small_config, capsys, queries, exact):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        good = rng.normal(size=(2, 8))
        bad = rng.normal(size=(2, 8))
        bad[1, 3] = np.inf if queries == "jsonl-infinity" else np.nan
        if queries == "block-nan":
            path = tmp_path / "queries.emb"
            write_embedding_block({"q0": good, "q1": bad}, path)
        else:
            path = tmp_path / "queries.jsonl"  # json writes the Python floats as NaN and Infinity
            path.write_text("".join(json.dumps({"id": q, "embeddings": m.tolist()}) + "\n"
                                    for q, m in (("q0", good), ("q1", bad))))
            assert ("Infinity" if queries == "jsonl-infinity" else "NaN") in path.read_text()
        run_path = tmp_path / "q.run"
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, *(["--exact"] if exact else []))
        assert code == 2
        assert read_stderr(capsys) == "error[invalid-config]: query 'q1' contains non-finite values"
        assert not run_path.exists()

    @pytest.mark.parametrize(
        "flags,n_queries",
        [
            (["--exact", "--k", 10, "--candidate-k", 5], 2),
            (["--exact", "--nprobe", 0], 2),
            (["--k", 10, "--candidate-k", 5], 0),
        ],
        ids=["exact-candidate-k-below-k", "exact-nprobe-0", "no-queries"],
    )
    def test_invalid_search_flags_are_rejected_without_a_two_stage_query(
        self, tmp_path, small_config, capsys, flags, n_queries
    ):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(json.dumps({"id": f"q{i}", "embeddings": rng.normal(size=(2, 8)).tolist()}) + "\n"
                                for i in range(n_queries)))
        run_path = tmp_path / "q.run"
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, *flags)
        assert code == 2
        err = read_stderr(capsys).splitlines()
        assert len(err) == 1 and err[0].startswith("error[invalid-config]")
        assert not run_path.exists()

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    def test_a_lone_surrogate_query_id_is_a_parse_error_before_any_search(
        self, tmp_path, small_config, capsys, monkeypatch, exact
    ):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(json.dumps({"id": q, "embeddings": rng.normal(size=(2, 8)).tolist()}) + "\n"
                                for q in ("q0", "q\udfff")))
        calls = []
        for owner, name in ((index_mod, "search"), (evaluation, "brute_force_search")):
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
        run_path = tmp_path / "q.run"
        run_path.write_text("q Q0 p 1 1.000000 modir\n")
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, *(["--exact"] if exact else []))
        assert code == 2
        assert read_stderr(capsys).splitlines() == ["error[parse]: line 2: 'id' 'q\\udfff' is not encodable as UTF-8"]
        assert calls == []
        assert run_path.read_text() == "q Q0 p 1 1.000000 modir\n"

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    @pytest.mark.parametrize("bad", ["query", "passage"])
    def test_an_id_a_run_file_cannot_hold_is_one_error_and_keeps_the_earlier_run(
        self, tmp_path, small_config, capsys, bad, exact
    ):
        # a run line is split on whitespace, so "query one" or "doc 9" would not read back
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        pid = "doc {}" if bad == "passage" else "p{}"
        idx_dir = tmp_path / "idx"
        save_index(build_index({pid.format(i): rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        path = tmp_path / "queries.jsonl"
        qid = "query one" if bad == "query" else "q1"
        path.write_text(json.dumps({"id": qid, "embeddings": rng.normal(size=(2, 8)).tolist()}) + "\n")
        run_path = tmp_path / "q.run"
        run_path.write_text("q Q0 p 1 1.000000 modir\n")
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, "--k", 10, *(["--exact"] if exact else []))
        assert code == 2
        err = read_stderr(capsys).splitlines()
        named = "'query one'" if bad == "query" else "'doc "
        assert len(err) == 1 and err[0].startswith(f"error[invalid-config]: id {named}")
        assert err[0].endswith("is empty or holds whitespace; a run file cannot hold it")
        assert run_path.read_text() == "q Q0 p 1 1.000000 modir\n"

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    def test_a_query_id_a_run_file_cannot_hold_fails_before_any_search(
        self, tmp_path, small_config, capsys, monkeypatch, exact
    ):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        path = tmp_path / "queries.mveb"
        qids = [f"q{i:02d}" for i in range(19)] + ["q 19"]
        write_embedding_block({qid: rng.normal(size=(2, 8)) for qid in qids}, path)
        calls = []
        for owner, name in ((index_mod, "search"), (evaluation, "brute_force_search")):
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
        run_path = tmp_path / "q.run"
        run_path.write_text("q Q0 p 1 1.000000 modir\n")
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, *(["--exact"] if exact else []))
        assert code == 2
        err = read_stderr(capsys).splitlines()
        assert err == ["error[invalid-config]: id 'q 19' is empty or holds whitespace; a run file cannot hold it"]
        assert calls == []
        assert run_path.read_text() == "q Q0 p 1 1.000000 modir\n"

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    def test_query_without_rows_is_one_error_and_no_run_file(self, tmp_path, small_config, capsys, exact):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        path = tmp_path / "queries.emb"
        write_embedding_block({"q0": rng.normal(size=(2, 8)), "q1": np.zeros((0, 8))}, path)
        run_path = tmp_path / "q.run"
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, *(["--exact"] if exact else []))
        assert code == 2
        assert read_stderr(capsys) == "error[empty-input]: query 'q1' has no rows"
        assert not run_path.exists()

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    def test_a_wrong_width_query_mid_file_fails_before_any_search(
        self, tmp_path, small_config, capsys, monkeypatch, exact
    ):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(json.dumps({"id": q, "embeddings": rng.normal(size=(2, width)).tolist()}) + "\n"
                                for q, width in (("q0", 8), ("q1", 5))))
        calls = []
        for owner, name in ((index_mod, "search"), (evaluation, "brute_force_search"),
                            (index_mod.CompressedIndex, "unit_corpus")):
            monkeypatch.setattr(owner, name, lambda *a, name=name, **k: calls.append(name))
        run_path = tmp_path / "q.run"
        code = run_cli("search", "--index", idx_dir, "--queries", path, "--out", run_path,
                       "--config", config_path, *(["--exact"] if exact else []))
        assert code == 2
        assert read_stderr(capsys) == "error[dim-mismatch]: query 'q1' must be a (terms, 8) matrix, got shape (2, 5)"
        assert calls == []
        assert not run_path.exists()

    @pytest.mark.parametrize("exact", [False, True], ids=["search", "exact"])
    @pytest.mark.parametrize("n_queries", [2, 0])
    def test_nprobe_is_bounded_by_the_centroid_count_on_both_paths(
        self, tmp_path, small_config, capsys, exact, n_queries
    ):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        count = json.loads((idx_dir / "meta.json").read_text())["centroid_count"]
        path = tmp_path / "queries.jsonl"
        path.write_text("".join(json.dumps({"id": f"q{i}", "embeddings": rng.normal(size=(2, 8)).tolist()}) + "\n"
                                for i in range(n_queries)))
        run_path = tmp_path / "q.run"
        argv = ["search", "--index", idx_dir, "--queries", path, "--out", run_path, "--config", config_path,
                "--k", 3, *(["--exact"] if exact else [])]
        assert run_cli(*argv, "--nprobe", count) == 0
        assert len(run_path.read_text().splitlines()) == n_queries * 3
        run_path.unlink()
        capsys.readouterr()
        assert run_cli(*argv, "--nprobe", count + 1) == 2
        assert read_stderr(capsys) == f"error[invalid-config]: n_probe {count + 1} exceeds centroid count {count}"
        assert not run_path.exists()

    def test_search_determinism(self, indexed, tmp_path):
        runs = [tmp_path / "r1.run", tmp_path / "r2.run"]
        for r in runs:
            assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                           "--checkpoint", indexed["ck_ft"], "--out", r,
                           "--config", indexed["config"]) == 0
        assert runs[0].read_bytes() == runs[1].read_bytes()

    def test_search_takes_no_seed(self, tmp_path, capsys):
        # a search uses no seed, so a --seed would be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            run_cli("search", "--index", tmp_path / "idx", "--queries", tmp_path / "q.emb",
                    "--out", tmp_path / "t.run", "--seed", 1)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in read_stderr(capsys)

    def test_exact_search_never_builds_the_search_state(self, tmp_path, small_config, monkeypatch):
        config_path, _ = small_config
        rng = np.random.default_rng(0)
        idx_dir = tmp_path / "idx"
        save_index(build_index({f"p{i}": rng.normal(size=(4, 8)) for i in range(10)}, seed=0), idx_dir)
        queries = tmp_path / "queries.emb"
        write_embedding_block({"q": rng.normal(size=(2, 8)).astype(np.float32)}, queries)
        loaded = []
        load_index = index_mod.load_index
        monkeypatch.setattr(index_mod, "load_index", lambda path: loaded.append(load_index(path)) or loaded[-1])
        assert run_cli("search", "--index", idx_dir, "--queries", queries, "--exact",
                       "--out", tmp_path / "t.run", "--config", config_path) == 0
        (idx,) = loaded
        assert "search_state" not in vars(idx)
        assert per_embedding_attributes(idx) == {"centroid_ids", "residual_codes"}


class TestEvalCmd:
    def test_metrics_printed(self, indexed, capsys):
        run_path = indexed["tmp"] / "e.run"
        assert run_cli("search", "--index", indexed["index"], "--queries", indexed["queries_a"],
                       "--checkpoint", indexed["ck_ft"], "--out", run_path,
                       "--config", indexed["config"], "--k", 10) == 0
        capsys.readouterr()
        assert run_cli("eval", "--run", run_path, "--qrels", indexed["qrels_a"],
                       "--metrics", "mrr@10,recall@5") == 0
        out = capsys.readouterr().out
        assert "mrr@10 " in out and "recall@5 " in out

    def test_skipped_queries_are_logged_once(self, tmp_path, capsys, caplog):
        run_path = tmp_path / "x.run"
        run_path.write_text("q1 Q0 a 1 2.0 t\nq2 Q0 b 1 1.0 t\nq3 Q0 c 1 1.0 t\n")
        qrels = tmp_path / "x.qrels"
        qrels.write_text("q1 0 a 1\nq3 0 c 0\n")
        with caplog.at_level(logging.INFO):
            assert run_cli("eval", "--run", run_path, "--qrels", qrels, "--metrics", "mrr@10,recall@5") == 0
        skips = [r.getMessage() for r in caplog.records if "skipping" in r.getMessage()]
        assert skips == ["skipping 2 unjudged or all-negative queries: ['q2', 'q3']"]
        assert capsys.readouterr().out.splitlines() == ["mrr@10 1.0000", "recall@5 1.0000", "skipped_queries 2"]

    def test_a_run_is_ranked_by_score_not_by_line_order(self, tmp_path, capsys):
        run_path = tmp_path / "x.run"
        run_path.write_text("q Q0 a 2 1.0 t\nq Q0 b 1 2.0 t\n")
        qrels = tmp_path / "x.qrels"
        qrels.write_text("q 0 b 1\n")
        assert run_cli("eval", "--run", run_path, "--qrels", qrels, "--metrics", "mrr@1,recall@1") == 0
        assert capsys.readouterr().out.splitlines() == ["mrr@1 1.0000", "recall@1 1.0000"]

    def test_a_repeated_judgment_is_one_parse_error(self, tmp_path, capsys):
        run_path = tmp_path / "x.run"
        run_path.write_text("q Q0 b 1 2.0 t\n")
        qrels = tmp_path / "x.qrels"
        qrels.write_text("q 0 b 1\nq 0 b 0\n")
        assert run_cli("eval", "--run", run_path, "--qrels", qrels, "--metrics", "mrr@10") == 2
        assert read_stderr(capsys) == "error[parse]: line 2: query 'q' judges passage 'b' twice"

    @pytest.mark.parametrize("flag,value", [("--config", "x"), ("--seed", "5")])
    def test_eval_takes_no_config_or_seed(self, tmp_path, capsys, flag, value):
        run_path = tmp_path / "x.run"
        run_path.write_text("q Q0 p 1 1.0 t\n")
        qrels = tmp_path / "x.qrels"
        qrels.write_text("q 0 p 1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--run", run_path, "--qrels", qrels, flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in read_stderr(capsys)

    def test_unknown_metric_lists_supported(self, indexed, tmp_path, capsys):
        run_path = tmp_path / "dummy.run"
        run_path.write_text("q Q0 p 1 1.0 t\n")
        qrels = tmp_path / "dummy.qrels"
        qrels.write_text("q 0 p 1\n")
        code = run_cli("eval", "--run", run_path, "--qrels", qrels, "--metrics", "ndcg@10")
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[unknown-metric]")
        assert "mrr@K" in err and "recall@K" in err

    @pytest.mark.parametrize("level", ["verbose", "10", ""])
    def test_an_unknown_log_level_is_one_error_line(self, tmp_path, capsys, monkeypatch, level):
        run_path = tmp_path / "x.run"
        run_path.write_text("q Q0 p 1 1.0 t\n")
        qrels = tmp_path / "x.qrels"
        qrels.write_text("q 0 p 1\n")
        monkeypatch.setenv("MODIR_LOG", level)
        assert run_cli("eval", "--run", run_path, "--qrels", qrels) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error[invalid-config]: MODIR_LOG must be one of debug, info, warning, error, got {level!r}\n"
        monkeypatch.setenv("MODIR_LOG", "Info")  # levels are not case-sensitive
        assert run_cli("eval", "--run", run_path, "--qrels", qrels, "--metrics", "mrr@10") == 0
        assert capsys.readouterr().out == "mrr@10 1.0000\n"

    @pytest.mark.parametrize("bad", ["run", "qrels"])
    def test_non_utf8_byte_is_a_parse_error(self, tmp_path, capsys, bad):
        files = {"run": tmp_path / "x.run", "qrels": tmp_path / "x.qrels"}
        files["run"].write_bytes(b"q Q0 p 1 1.0 t\n" + (b"q Q0 p\xff 2 0.5 t\n" if bad == "run" else b""))
        files["qrels"].write_bytes(b"q 0 p 1\n" + (b"q 0 p\xff 1\n" if bad == "qrels" else b""))
        code = run_cli("eval", "--run", files["run"], "--qrels", files["qrels"])
        assert code == 2
        err = read_stderr(capsys)
        assert err.startswith("error[parse]: line 2:") and files[bad].name in err and "\n" not in err

    @pytest.mark.parametrize(
        "text,code",
        [
            ('{"n": 32,', "parse"),
            ("[32]", "parse"),
            (b"\xff\xfe", "parse"),
            ('{"n": "x"}', "invalid-config"),
            ('{"n_probe": true}', "invalid-config"),
            ('{"final_k": 2.0}', "invalid-config"),
            ('{"learning_rate": "fast"}', "invalid-config"),
        ],
        ids=["cut-short", "not-an-object", "not-utf8", "string-int", "bool-int", "float-int", "string-float"],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, text, code):
        config = tmp_path / "bad.json"
        if isinstance(text, bytes):
            config.write_bytes(text)
        else:
            config.write_text(text)
        assert run_cli("index", "--corpus", tmp_path / "none.jsonl", "--out", tmp_path / "idx", "--config", config) == 2
        err = read_stderr(capsys)
        assert err.startswith(f"error[{code}]") and "\n" not in err

    @pytest.mark.parametrize(  # search takes no --seed, but its config's seed is checked too
        "command,given", [("train", "flag"), ("train", "config"), ("index", "flag"), ("index", "config"),
                          ("search", "config")],
    )
    def test_a_negative_seed_is_one_error_line_before_any_work(
        self, tmp_path, small_config, capsys, command, given
    ):
        _, cfg = small_config
        config = tmp_path / "seed.json"
        config.write_text(json.dumps(dict(cfg, seed=-1 if given == "config" else 5)))
        corpus, queries, _, _, _ = build_language_files(tmp_path, "aa")
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--stage", "pretrain", "--corpus", corpus, "--checkpoint-out", out],
            "index": ["index", "--corpus", corpus, "--checkpoint", tmp_path / "none.ckpt", "--out", out],
            "search": ["search", "--index", tmp_path / "none", "--queries", queries, "--out", out],
        }[command]
        argv += ["--config", config] + (["--seed", -1] if given == "flag" else [])
        assert run_cli(*argv) == 2
        assert read_stderr(capsys) == "error[invalid-config]: seed must be >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("vocab", [1, 4])
    def test_a_vocab_without_a_text_token_is_refused(self, vocab):
        # the reserved ids 0-3 ([M] among them) leave no row for a text token below 5
        with pytest.raises(InvalidConfigError) as exc:
            RunConfig(vocab=vocab)
        assert exc.value.message == f"vocab must be >= 5, got {vocab}"
        assert RunConfig(vocab=5).vocab == 5

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = run_cli("eval", "--run", tmp_path / "none.run", "--qrels", tmp_path / "none.qrels")
        assert code == 2
        assert read_stderr(capsys).startswith("error[io]")
