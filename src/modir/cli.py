"""Batch command-line surface: train, index, search, eval.

Every command is deterministic: train and index for a fixed --seed, search
and eval for fixed inputs (search reads a config but uses no seed; eval has
no seed and no config). Operational failures exit
nonzero after printing a single ``error[<code>]: message`` line to stderr.
Log verbosity comes from the MODIR_LOG environment variable (debug, info,
warning, error).
"""

import argparse
import logging
import math
import os
import sys
import time

import numpy as np

from . import data, encoder, evaluation, index as index_mod, scoring
from .config import RunConfig
from .errors import (
    InvalidConfigError,
    ModirError,
    NonFiniteError,
    StageError,
    UnknownLanguageError,
    UnknownMetricError,
    UnknownPassageError,
)

log = logging.getLogger("modir")

_STAGE_STREAM = {"pretrain": 1, "finetune": 2, "extend": 3}
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _load_config(args) -> RunConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:  # search takes no --seed
        overrides["seed"] = args.seed
    if args.config:
        return RunConfig.from_file(args.config, **overrides)
    return RunConfig(**overrides)


def _records_by_id(records):
    return {rec.id: rec for rec in records}


def _prepare_record(rec, cfg: RunConfig, vocab: int, kind: str) -> scoring.PreparedSequence:
    tokens = data.tokenize(rec.text, vocab)
    if kind == "query":
        return scoring.prepare_query(tokens, cfg.n, rec.language)
    return scoring.prepare_passage(tokens, cfg.m, rec.language)


def _encode_corpus(records, params, cfg: RunConfig, kind: str) -> dict:
    """Each record's matrix by id, in record order: its own embeddings, or
    its text encoded. The text records are encoded together
    (``encoder.encode_batch``), each to the bits ``encoder.encode`` gives."""
    out = {}
    text = []
    for rec in records:
        if rec.embeddings is None:
            if params is None:
                raise InvalidConfigError(
                    f"record {rec.id!r} is raw text; pass --checkpoint so it can be encoded"
                )
            text.append(rec)
        out[rec.id] = rec.embeddings
    if text:
        seqs = [_prepare_record(rec, cfg, params.vocab_size, kind) for rec in text]
        for rec, matrix in zip(text, encoder.encode_batch(seqs, params)):
            out[rec.id] = matrix
    return out


def _term_table(records, params, cfg: RunConfig) -> data.TermTable:
    """The passages as one TermTable: an embedding block's own float32 table,
    or the records' float64 embeddings and encodings stacked in id order."""
    if isinstance(records, data.BlockRecords):
        return records.table
    return data.TermTable.stack(_encode_corpus(records, params, cfg, "passage"))


def _write_report(path, losses):
    with data.atomic_write(path) as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(losses, start=1):
            fh.write(f"{step},{loss:.10f}\n")


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg = _load_config(args)
    corpus = data.read_jsonl_records(args.corpus)
    text_records = [r for r in corpus if r.text is not None]
    if not text_records:
        raise InvalidConfigError("training needs text records in the corpus")

    if args.stage == "pretrain":
        if args.checkpoint_in:
            params = encoder.load_checkpoint(args.checkpoint_in)
            if params.stage != "pretrain":
                raise StageError(f"cannot resume pretraining from stage {params.stage!r}")
        else:
            langs = sorted({r.language for r in text_records})
            params = encoder.init_params(
                langs, vocab=cfg.vocab, d=cfg.d, d_out=cfg.d_out,
                n_layers=cfg.n_layers, bottleneck=cfg.bottleneck, seed=cfg.seed,
            )
        losses = _run_mlm(params, text_records, cfg, cfg.pretrain_steps, stage="pretrain")
    elif args.stage == "finetune":
        if not args.checkpoint_in:
            raise InvalidConfigError("finetune needs --checkpoint-in from the pretrain stage")
        params = encoder.load_checkpoint(args.checkpoint_in)
        params.set_stage("finetune")
        losses = _run_finetune(params, text_records, cfg, args)
    else:  # extend
        if not args.checkpoint_in:
            raise InvalidConfigError("extend needs --checkpoint-in from an earlier stage")
        if not args.lang:
            raise InvalidConfigError("extend needs --lang naming the new language")
        params = encoder.load_checkpoint(args.checkpoint_in)
        encoder.add_language(params, args.lang, init_seed=(cfg.seed, _STAGE_STREAM["extend"], 0))
        new_lang_records = [r for r in text_records if r.language == args.lang]
        if not new_lang_records:
            raise UnknownLanguageError(f"corpus has no text records in language {args.lang!r}")
        losses = _run_mlm(params, new_lang_records, cfg, cfg.extend_steps, stage="extend")

    encoder.save_checkpoint(params, args.checkpoint_out)
    report = args.report or f"{args.checkpoint_out}.losses.csv"
    _write_report(report, losses)
    print(f"stage={args.stage} steps={len(losses)} final_loss={losses[-1] if losses else 0.0:.6f}")
    print(f"checkpoint={args.checkpoint_out} report={report}")
    return 0


def _losses(stage: str, steps: int, step_loss) -> list[float]:
    """The losses of ``step_loss(0)`` ... ``step_loss(steps - 1)``. The first
    loss that is not finite, or a step's own NonFiniteError, ends the run with
    a NonFiniteError naming the stage and the step. numpy's floating-point
    warnings are silenced, so that error is all a diverged run prints."""
    losses = []
    with np.errstate(all="ignore"):
        for step in range(steps):
            try:
                loss = step_loss(step)
            except NonFiniteError as exc:
                raise NonFiniteError(f"{stage} step {step + 1}: {exc.message}") from None
            if not math.isfinite(loss):
                raise NonFiniteError(
                    f"{stage} step {step + 1}: the loss is {loss}; a smaller learning_rate may keep it finite"
                )
            losses.append(loss)
    return losses


def _run_mlm(params, records, cfg: RunConfig, steps: int, stage: str):
    rng = np.random.default_rng((cfg.seed, _STAGE_STREAM[stage]))

    def step_loss(step):
        rec = records[step % len(records)]
        seq = _prepare_record(rec, cfg, params.vocab_size, "passage")
        return encoder.mlm_step(params, seq, rec.language, cfg.mask_rate, cfg.learning_rate, rng)[1]

    return _losses(stage, steps, step_loss)


def _run_finetune(params, text_records, cfg: RunConfig, args):
    if not args.queries or not args.triples:
        raise InvalidConfigError("finetune needs --queries and --triples")
    passages = _records_by_id(text_records)
    queries = _records_by_id([r for r in data.read_jsonl_records(args.queries) if r.text is not None])
    triples = []
    for qid, pos_id, neg_id in data.read_triples(args.triples):
        if qid not in queries:
            raise UnknownPassageError(f"triple references unknown query id {qid!r}")
        for pid in (pos_id, neg_id):
            if pid not in passages:
                raise UnknownPassageError(f"triple references unknown passage id {pid!r}")
        triples.append(
            encoder.TrainingTriple(
                query=_prepare_record(queries[qid], cfg, params.vocab_size, "query"),
                positive=_prepare_record(passages[pos_id], cfg, params.vocab_size, "passage"),
                hard_negative=_prepare_record(passages[neg_id], cfg, params.vocab_size, "passage"),
            )
        )
    if not triples:
        raise InvalidConfigError("triples file is empty")
    batches = [
        encoder.Batch(tuple(triples[i : i + cfg.batch_size]))
        for i in range(0, len(triples), cfg.batch_size)
    ]
    return _losses(
        "finetune", cfg.finetune_steps,
        lambda step: encoder.finetune_step(batches[step % len(batches)], params, cfg.learning_rate)[1],
    )


# ---------------------------------------------------------------------------
# index


def cmd_index(args) -> int:
    cfg = _load_config(args)
    records = data.read_records(args.corpus)
    if not records:
        raise InvalidConfigError("corpus is empty")
    params = encoder.load_checkpoint(args.checkpoint) if args.checkpoint else None
    table = _term_table(records, params, cfg)
    del records  # JSONL matrices have been stacked into the table
    for pid in table.ids:  # a search could not write these ids to a run file
        evaluation.check_run_id(pid)
    idx = index_mod.build_index(table, seed=cfg.seed)
    del table  # the index holds its own codes; saving it does not need the corpus
    index_mod.save_index(idx, args.out)
    print(
        f"embeddings={idx.embedding_count} centroids={idx.centroid_count} "
        f"bits_per_embedding={idx.bits_per_embedding}"
    )
    sizes = idx.list_sizes
    print(f"list_size max={sizes.max()} mean={sizes.mean():.2f} empty_centroids={int((sizes == 0).sum())}")
    print(f"index={args.out}")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    cfg = _load_config(args)
    idx = index_mod.load_index(args.index)
    final_k = args.k if args.k is not None else cfg.final_k
    search_params = index_mod.SearchParams(
        n_probe=args.nprobe if args.nprobe is not None else min(cfg.n_probe, idx.centroid_count),
        candidate_k=args.candidate_k if args.candidate_k is not None else max(cfg.candidate_k, final_k),
        final_k=final_k,
    )
    params = encoder.load_checkpoint(args.checkpoint) if args.checkpoint else None
    index_mod.check_n_probe(search_params, idx)
    queries = _encode_corpus(data.read_records(args.queries), params, cfg, "query")
    for qid, matrix in queries.items():  # every query, before any search; no float64 copy is kept
        evaluation.check_run_id(qid)
        scoring.check_query(matrix, idx.dim, name=f"query {qid!r}")
    oracle_corpus = idx.unit_corpus() if args.exact else None

    run = {}
    latencies = []
    for qid, matrix in queries.items():
        started = time.perf_counter()
        if args.exact:
            ranked = evaluation.brute_force_search(matrix, oracle_corpus, final_k)
        else:
            ranked = index_mod.search(matrix, idx, search_params)
        latencies.append((time.perf_counter() - started) * 1000.0)
        run[qid] = ranked
    evaluation.write_run(run, args.out)
    print(f"queries={len(run)} run={args.out}")
    if args.timing and latencies:
        arr = np.array(latencies)
        print(
            f"latency_ms mean={arr.mean():.2f} median={np.median(arr):.2f} "
            f"p95={np.percentile(arr, 95):.2f} max={arr.max():.2f}"
        )
    return 0


# ---------------------------------------------------------------------------
# eval


_METRICS = {"mrr": evaluation.mrr_at_k, "recall": evaluation.recall_at_k}


def _parse_metric(spec: str):
    name, sep, cutoff = spec.strip().lower().partition("@")
    if not sep or name not in _METRICS:
        supported = ", ".join(f"{m}@K" for m in sorted(_METRICS))
        raise UnknownMetricError(f"unknown metric {spec!r}; supported: {supported}")
    try:
        k = int(cutoff)
    except ValueError:
        raise UnknownMetricError(f"bad cutoff in {spec!r}") from None
    return name, k


def cmd_eval(args) -> int:
    run = evaluation.read_run(args.run)
    qrels = evaluation.read_qrels(args.qrels)
    metrics = [_parse_metric(m) for m in args.metrics.split(",") if m.strip()]
    if not metrics:
        raise UnknownMetricError("no metrics requested")
    _, skipped = evaluation.evaluable_queries(run, qrels)
    for name, k in metrics:
        value = _METRICS[name](run, qrels, k)
        print(f"{name}@{k} {value:.4f}")
    if skipped:
        log.info("skipping %d unjudged or all-negative queries: %s", len(skipped), skipped)
        print(f"skipped_queries {len(skipped)}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modir", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run one learning stage and write a checkpoint")
    train.add_argument("--stage", required=True, choices=("pretrain", "finetune", "extend"))
    train.add_argument("--corpus", required=True, help="JSONL passage records")
    train.add_argument("--queries", help="JSONL query records (finetune)")
    train.add_argument("--triples", help="qid pos_pid neg_pid lines (finetune)")
    train.add_argument("--lang", help="new language id (extend)")
    train.add_argument("--checkpoint-in", dest="checkpoint_in")
    train.add_argument("--checkpoint-out", dest="checkpoint_out", required=True)
    train.add_argument("--report", help="loss curve CSV (default: <checkpoint-out>.losses.csv)")
    train.set_defaults(func=cmd_train)

    index_p = sub.add_parser("index", help="encode a corpus and build the compressed index")
    index_p.add_argument("--corpus", required=True, help="JSONL records or binary embedding block")
    index_p.add_argument("--checkpoint", help="encoder checkpoint (needed for text records)")
    index_p.add_argument("--out", required=True, help="index directory")
    index_p.set_defaults(func=cmd_index)

    search_p = sub.add_parser("search", help="rank passages for each query")
    search_p.add_argument("--index", required=True)
    search_p.add_argument("--queries", required=True, help="JSONL records or binary embedding block")
    search_p.add_argument("--checkpoint", help="encoder checkpoint (needed for text queries)")
    search_p.add_argument("--k", type=int, help="results per query")
    search_p.add_argument("--nprobe", type=int)
    search_p.add_argument("--candidate-k", dest="candidate_k", type=int)
    search_p.add_argument("--exact", action="store_true", help="brute-force oracle over the decompressed corpus")
    search_p.add_argument("--timing", action="store_true", help="print a per-query latency summary")
    search_p.add_argument("--out", required=True, help="TREC run file")
    search_p.set_defaults(func=cmd_search)

    eval_p = sub.add_parser("eval", help="score a run file against qrels")
    eval_p.add_argument("--run", required=True)
    eval_p.add_argument("--qrels", required=True)
    eval_p.add_argument("--metrics", default="mrr@10,recall@100", help="comma list, e.g. mrr@10,recall@100")
    eval_p.set_defaults(func=cmd_eval)

    for p in (train, index_p, search_p):
        p.add_argument("--config", help="JSON file of RunConfig overrides")
    for p in (train, index_p):
        p.add_argument("--seed", type=int, help="overrides the config seed")
    return parser


def _log_level() -> str:
    """The MODIR_LOG level; any other value is InvalidConfigError naming the
    allowed ones."""
    name = os.environ.get("MODIR_LOG", "warning")
    if name.lower() not in _LOG_LEVELS:
        raise InvalidConfigError(f"MODIR_LOG must be one of {', '.join(_LOG_LEVELS)}, got {name!r}")
    return name.upper()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        logging.basicConfig(level=_log_level())
        return args.func(args)
    except ModirError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
