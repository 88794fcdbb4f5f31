"""Seeded end-to-end benchmark for ``modir train``, ``modir index`` and
``modir search``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload long-passages --seed 1 --seconds 40 --trace 0

Every workload runs the same closed-loop pipeline with one client, each
phase in its own process so peak RSS is per command:

    pretrain   modir train --stage pretrain   (MLM steps)
    finetune   modir train --stage finetune   (contrastive steps on triples)
    encode     tokenize -> prepare_passage -> encode, as modir index --checkpoint does
    index      modir index                    (build_index + save_index)
    search     modir search                   (two-stage query stream, cold memo)
    exact      modir search --exact           (brute-force oracle on a query subset)

The encoder phases run in three rounds of chunks: one round before index,
one between index and search, and one after exact (see ``run_pipeline``).

The workloads differ in which layer they stress; see ``WORKLOADS``. Inputs
come from ``--seed`` only. ``--seconds`` scales the query and training-step
counts, which are sized so that at ``--seconds 40`` the timed parts of a run
take about 40 s on a 2-core machine at the commit that defined the benchmark.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics. With ``--trace 1`` every public layer function is wrapped (see
``bench_child.CALLS``), the search phases are then re-run untraced for the
tracing overhead, and the JSON has the per-layer metrics. Metric names and
units are those listed in ``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after pinning BLAS threads)

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
from bench_stats import TAIL_BEYOND, Checks, block_rate, tail_latency  # noqa: E402

BATCH_SIZE = 8  # RunConfig default; finetune triples per step
PHASE_TIMEOUT_S = 150
RECALL_QUERIES = 40  # leading queries whose exact top 10 is computed
SETUP_REPS = 3  # set-ups per phase, each in a fresh process, reported as their median
CHUNKS = 3  # processes each encoder phase is split into, one per round of the run
CHECK_QUERIES = 3  # queries in the save/load and score spot checks


@dataclass(frozen=True)
class Workload:
    corpus: RetrievalSpec  # the retrieval phases' embeddings and queries
    text: TextSpec  # the encoder phases' corpus, in the corpus's length range
    search: dict  # n_probe, candidate_k, final_k
    # Counts per 40 s of --seconds:
    queries: int
    exact_queries: int
    pretrain_steps: int
    finetune_steps: int


WORKLOADS = {
    # Re-rank dominates a query and k-means the build. Few, wide topics make
    # nearly every query fill candidate_k, so a query re-ranks about the same
    # number of passages on every seed.
    "long-passages": Workload(
        corpus=RetrievalSpec(passages=5000, min_terms=16, max_terms=48, topics=16, topic_groups=4, mix=0.3),
        text=TextSpec(passages=15000, min_words=16, max_words=64),
        search={"n_probe": 8, "candidate_k": 1000, "final_k": 10},
        queries=120,
        exact_queries=16,
        pretrain_steps=4000,
        finetune_steps=100,
    ),
    # Candidate generation dominates a query, centroid assignment the build,
    # and recall is below 1.
    "short-passages": Workload(
        corpus=RetrievalSpec(passages=40000, min_terms=4, max_terms=12, topics=256, topic_groups=32, mix=0.3),
        text=TextSpec(passages=30000, min_words=4, max_words=12),
        search={"n_probe": 16, "candidate_k": 20, "final_k": 10},
        queries=600,
        exact_queries=1,
        pretrain_steps=7000,
        finetune_steps=160,
    ),
}

def listed_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, in BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in listed[key]} for key in ("end_to_end", "per_layer"))


# ---------------------------------------------------------------------------
# Environment


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Inputs:
    files: dict
    n_queries: int
    exact: dict  # qid -> exact top-10 passage ids, for the first RECALL_QUERIES queries
    embeddings: int


def scaled(count: int, seconds: float, floor: int) -> int:
    return max(floor, round(count * seconds / 40.0))


def make_inputs(wl: Workload, seed: int, seconds: float, work: str) -> Inputs:
    f = {name: os.path.join(work, name) for name in (
        "text.jsonl", "train_queries.jsonl", "triples.tsv", "config.json",
        "corpus.mveb", "queries.mveb", "exact_queries.mveb",
    )}
    config = {
        "seed": seed,
        # Per encoder chunk; each chunk runs every finetune batch once.
        "pretrain_steps": scaled(wl.pretrain_steps / CHUNKS, seconds, 10),
        "finetune_steps": scaled(wl.finetune_steps / CHUNKS, seconds, 2),
        "batch_size": BATCH_SIZE,
    }
    with open(f["config.json"], "w") as fh:
        json.dump(config, fh)
    text = text_corpus(wl.text, seed, config["finetune_steps"], BATCH_SIZE)
    write_text_records(f["text.jsonl"], text["passages"])
    write_text_records(f["train_queries.jsonl"], text["queries"])
    write_triples(f["triples.tsv"], text["triples"])

    spec = wl.corpus
    rows, offsets, rng = retrieval_corpus(spec, seed)
    ids = passage_ids(spec.passages)
    write_mveb(f["corpus.mveb"], ids, [rows[offsets[i]:offsets[i + 1]] for i in range(len(ids))], spec.dim)
    n_queries = scaled(wl.queries, seconds, TAIL_BEYOND + 10)
    queries = retrieval_queries(spec, rows, offsets, rng, n_queries)
    qids = [f"q{i:05d}" for i in range(n_queries)]
    write_mveb(f["queries.mveb"], qids, list(queries), spec.dim)
    n_exact = scaled(wl.exact_queries, seconds, 1)
    write_mveb(f["exact_queries.mveb"], qids[:n_exact], list(queries[:n_exact]), spec.dim)
    tops = exact_top_k(rows, offsets, queries[:RECALL_QUERIES], 10)
    exact = {qids[i]: [ids[p] for p in top] for i, top in enumerate(tops)}
    return Inputs(files=f, n_queries=n_queries, exact=exact, embeddings=int(offsets[-1]))


# ---------------------------------------------------------------------------
# Phases


class PhaseFailed(Exception):
    pass


def run_child(spec: dict, work: str) -> dict:
    """Run ``bench_child.py`` on ``spec`` in a fresh process; its result."""
    spec = dict(spec, result=os.path.join(work, f"{spec['phase']}.result.json"))
    spec_path = os.path.join(work, f"{spec['phase']}.spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_child.py"), spec_path],
            capture_output=True, text=True, env=env, timeout=PHASE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise PhaseFailed(f"{spec['phase']}: timed out after {PHASE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PhaseFailed(f"{spec['phase']}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def run_phase(kind: str, spec: dict, work: str, trace: bool, probes: int = 0) -> dict:
    """One phase in a fresh process, then ``probes`` set-up-only processes;
    ``setup_samples`` holds the set-up time of each."""
    result = run_child(dict(spec, phase=kind, trace=trace), work)
    if result["setup_s"] is None:
        raise PhaseFailed(f"{kind}: no timed unit ran")
    result["setup_samples"] = [result["setup_s"]] + [
        run_child(dict(spec, phase=kind, trace=False, setup_only=True), work)["setup_s"] for _ in range(probes)]
    return result


def run_pipeline(wl: Workload, inputs: Inputs, work: str, trace: bool) -> dict:
    """Every phase, in run order; returns the results by key ("pretrain.0",
    "index", "search", ...) plus the output paths.

    The host's speed changes from second to second, so each encoder phase,
    a few seconds of work, is split into CHUNKS processes spread over the run:
    a fast or slow spell then lands in one sample of its rate instead of all
    of it. Each chunk's set-up is a set-up sample; the other phases take
    theirs from set-up-only processes.
    """
    f = inputs.files
    common = ["--config", f["config.json"]]
    ckpt_pre, ckpt_ft = os.path.join(work, "pre.ckpt"), os.path.join(work, "ft.ckpt")
    out = {"phases": {}, "index_dir": os.path.join(work, "index")}
    shutil.rmtree(out["index_dir"], ignore_errors=True)
    probes = 0 if trace else SETUP_REPS - 1

    def phase(key, probes=0, **spec):
        spec["spans"] = os.path.join(work, f"{key}.spans.json")
        out["phases"][key] = run_phase(key.split(".")[0], spec, work, trace, probes)

    def encoder_round(i):
        resume = ["--checkpoint-in", ckpt_pre] if i else []
        phase(f"pretrain.{i}", checkpoint_out=ckpt_pre, argv=[
            "train", "--stage", "pretrain", "--corpus", f["text.jsonl"], *resume, "--checkpoint-out", ckpt_pre,
            *common])
        phase(f"finetune.{i}", checkpoint_out=ckpt_ft, argv=[
            "train", "--stage", "finetune", "--corpus", f["text.jsonl"], "--queries", f["train_queries.jsonl"],
            "--triples", f["triples.tsv"], "--checkpoint-in", ckpt_pre, "--checkpoint-out", ckpt_ft, *common])
        phase(f"encode.{i}", encode={"checkpoint": ckpt_ft, "passages": f["text.jsonl"], "m": 256,
                                     "chunk": [i, CHUNKS]})

    encoder_round(0)
    phase("index", probes, index_dir=out["index_dir"], queries=f["queries.mveb"], search_params=wl.search,
          check_queries=CHECK_QUERIES, argv=["index", "--corpus", f["corpus.mveb"], "--out", out["index_dir"], *common])
    encoder_round(1)
    searched = search_phases(wl, inputs, work, trace, out["index_dir"], probes)
    out["phases"].update(searched.pop("phases"))
    out.update(searched)
    encoder_round(2)
    return out


def search_phases(wl: Workload, inputs: Inputs, work: str, trace: bool, index_dir: str, probes: int = 0) -> dict:
    """The two-stage query stream and the oracle, each in a fresh process."""
    f = inputs.files
    flags = ["--k", str(wl.search["final_k"]), "--nprobe", str(wl.search["n_probe"]),
             "--candidate-k", str(wl.search["candidate_k"]), "--config", f["config.json"]]
    run_file, exact_file = os.path.join(work, "search.run"), os.path.join(work, "exact.run")
    search = run_phase("search", {"check_queries": CHECK_QUERIES, "spans": os.path.join(work, "search.spans.json"),
                                  "argv": ["search", "--index", index_dir, "--queries", f["queries.mveb"], *flags,
                                           "--out", run_file]}, work, trace, probes)
    exact = run_phase("exact", {"spans": os.path.join(work, "exact.spans.json"), "argv": [
        "search", "--exact", "--index", index_dir, "--queries", f["exact_queries.mveb"], *flags,
        "--out", exact_file]}, work, trace, probes)
    return {"phases": {"search": search, "exact": exact}, "run_file": run_file, "exact_file": exact_file}


# ---------------------------------------------------------------------------
# Checks and metrics


def read_run(path) -> dict:
    run: dict = {}
    with open(path) as fh:
        for line in fh:
            qid, _, pid, _, score, _ = line.split()
            run.setdefault(qid, []).append((pid, float(score)))
    return run


def check_rankings(tally: Checks, run: dict, expected_queries: int, final_k: int, label: str):
    tally.check(len(run) == expected_queries, f"{label}: {len(run)} of {expected_queries} queries answered")
    for qid, ranking in run.items():
        pids = [pid for pid, _ in ranking]
        scores = [s for _, s in ranking]
        tally.check(
            len(pids) == final_k and len(set(pids)) == final_k and all(a >= b for a, b in zip(scores, scores[1:])),
            f"{label}: query {qid} does not return {final_k} distinct ids with descending scores",
        )


def check_codes_size(tally: Checks, idx_dir: str, embeddings: int):
    with open(os.path.join(idx_dir, "meta.json")) as fh:
        meta = json.load(fh)
    size = os.path.getsize(os.path.join(idx_dir, "codes.bin"))
    expect = math.ceil(meta["embedding_count"] * meta["bits_per_embedding"] / 8)
    tally.check(size == expect, f"codes.bin is {size} bytes, expected {expect}")
    tally.check(meta["embedding_count"] == embeddings, f"index holds {meta['embedding_count']} of {embeddings} embeddings")


def recall10(answers: dict, exact: dict) -> float:
    hits = [len({p for p, _ in answers.get(q, [])[:10]} & set(top)) / len(top) for q, top in exact.items()]
    return sum(hits) / len(hits)


def check_outputs(tally: Checks, wl: Workload, inputs: Inputs, out: dict):
    """Count the phases' own checks, then check the files the commands wrote."""
    for p in out["phases"].values():
        tally.attempted += p["units"]
        tally.merge(p["checks"])
    final_k = wl.search["final_k"]
    check_rankings(tally, read_run(out["run_file"]), out["phases"]["search"]["units"], final_k, "search")
    check_rankings(tally, read_run(out["exact_file"]), out["phases"]["exact"]["units"], final_k, "search --exact")
    tally.check(out["phases"]["search"]["units"] == inputs.n_queries, "search: not every query was run")
    if "index" in out["phases"]:
        check_codes_size(tally, out["index_dir"], inputs.embeddings)


def by_kind(phases: dict) -> dict:
    """Phase kind ("pretrain", "index", ...) -> the results of its processes."""
    groups: dict = {}
    for result in phases.values():
        groups.setdefault(result["phase"], []).append(result)
    return groups


def search_metrics(out: dict) -> dict:
    latencies_ms = [(end - start) * 1000.0 for start, end in out["phases"]["search"]["unit_times"]]
    tail, pct = tail_latency(latencies_ms)
    return {
        "qps": block_rate([out["phases"]["search"]["unit_times"]]),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": tail,
        "latency_tail_note": f"p{pct:.1f}, {TAIL_BEYOND} of {len(latencies_ms)} samples beyond",
        "exact_qps": block_rate([out["phases"]["exact"]["unit_times"]]),
    }


def end_to_end(inputs: Inputs, out: dict) -> dict:
    kinds = by_kind(out["phases"])
    idx_bytes = sum(os.path.getsize(os.path.join(out["index_dir"], n)) for n in os.listdir(out["index_dir"]))

    def rate(kind):
        return block_rate([p["unit_times"] for p in kinds[kind]])

    return dict(
        search_metrics(out),
        setup_s=sum(statistics.median([s for p in ps for s in p["setup_samples"]]) for ps in kinds.values()),
        build_s=out["phases"]["index"]["build_s"],
        recall10_vs_exact=recall10(read_run(out["run_file"]), inputs.exact),
        index_peak_mb=out["phases"]["index"]["peak_mb"],
        search_peak_mb=out["phases"]["search"]["peak_mb"],
        disk_bytes_per_embedding=idx_bytes / inputs.embeddings,
        mlm_steps_per_s=rate("pretrain"),
        finetune_triples_per_s=rate("finetune") * BATCH_SIZE,
        encode_passages_per_s=rate("encode"),
    )


def per_layer(wl: Workload, inputs: Inputs, out: dict, reference: dict, names) -> dict:
    """Per-layer metrics of a traced run; ``reference`` is an untraced re-run
    of its search phases, for the tracing overhead.

    A name ending in ``.self_s`` or ``.total_s`` is that span's self or
    inclusive time summed over all phases (inclusive time counts the wrapped
    calls a span makes, such as exact_rerank's decompression and MaxSim), and
    any other name not derived below is a count recorded by the wrappers.
    """
    ph = out["phases"]
    sums: dict = {"self_s": {}, "total_s": {}, "counts": {}}
    for p in ph.values():
        for key, into in sums.items():
            for name, value in p[key].items():
                into[name] = into.get(name, 0) + value
    search = ph["search"]
    n_queries = search["units"]
    cand_recall = [len(set(search["candidates"][int(q[1:])]) & set(top)) / len(top) for q, top in inputs.exact.items()]
    derived = {
        "index.list_size_max_over_mean": ph["index"]["list_size_max_over_mean"],
        "index.empty_centroids": ph["index"]["empty_centroids"],
        "index.CompressedIndex.decompress_embeddings.rows_per_query":
            search["counts"].get("index.decompressed_rows_in_queries", 0) / n_queries,
        "index.candidates_per_query": search["counts"]["index.candidates"] / n_queries,
        "index.rerank_yield": n_queries * wl.search["final_k"] / search["counts"]["index.reranked"],
        "index.candidate_recall10": sum(cand_recall) / len(cand_recall),
        # From the untraced re-run: the traced run also holds its spans in memory.
        "index.resident_growth_mb": reference["phases"]["search"]["resident_growth_mb"],
        "trace.overhead_s": sum(ph[k]["wall_s"] - reference["phases"][k]["wall_s"] for k in ("search", "exact")),
    }
    kinds = by_kind(ph)
    tops = {"train": ("pretrain", "finetune"), "index": ("index",), "search": ("search",), "search_exact": ("exact",)}
    for command, of in tops.items():
        derived[f"cli.{command}.wall_s"] = sum(p["wall_s"] for k in of for p in kinds[k])
        derived[f"cli.{command}.other_s"] = sum(p["self_s"][f"cli.{command}"] for k in of for p in kinds[k])
    metrics = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif kind in ("self_s", "total_s"):
            metrics[name] = sums[kind].get(span, 0.0)
        else:
            metrics[name] = sums["counts"].get(name, 0)
    return metrics


# ---------------------------------------------------------------------------
# Entry point


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM so subprocess.run kills the running phase.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "modir", "__init__.py")):
        print(f"error: no modir package under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    end_to_end_units, per_layer_units = listed_metrics()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(work, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    started = time.perf_counter()
    tally = Checks()
    try:
        inputs = make_inputs(wl, args.seed, args.seconds, work)
        out = run_pipeline(wl, inputs, work, trace=bool(args.trace))
        check_outputs(tally, wl, inputs, out)
        metrics = end_to_end(inputs, out)
        report = {"end_to_end": metrics}
        if args.trace:
            reference = search_phases(wl, inputs, work, False, out["index_dir"])
            check_outputs(tally, wl, inputs, reference)
            report["per_layer"] = per_layer(wl, inputs, out, reference, per_layer_units)
            report["untraced_search"] = search_metrics(reference)
    except PhaseFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = tally.failed / tally.attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"wall {time.perf_counter() - started:.1f} s" + (" (end-to-end figures below are traced)" if args.trace else ""))
    notes = {
        "latency_tail_ms": metrics["latency_tail_note"],
        "setup_s": f"median set-up of each of {len(by_kind(out['phases']))} phases, summed; "
                   f"{sum(len(p['setup_samples']) for p in out['phases'].values())} set-ups, each in a fresh process",
    }
    for name, unit in end_to_end_units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:26s} {fmt(metrics[name]):>12s} {unit}{note}")
    print(f"  {'failed_frac':26s} {fmt(failed_frac):>12s} fraction  ({tally.failed} of {tally.attempted} operations)")
    for message in tally.messages[:20]:
        print(f"  FAILED: {message}")
    if args.trace:
        for name, value in report["per_layer"].items():
            print(f"  {name:60s} {fmt(value):>12s} {per_layer_units[name]}")
        untraced = report["untraced_search"]
        print("  tracing overhead (traced minus untraced re-run of the search phases): " + ", ".join(
            f"{n} {fmt(metrics[n] - untraced[n])} {end_to_end_units[n]}"
            for n in ("qps", "latency_p50_ms", "latency_tail_ms", "exact_qps")))
    with open(os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(dict(report, env=env, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       failed=tally.failed, attempted=tally.attempted, failed_frac=failed_frac,
                       messages=tally.messages, spec=asdict(wl)), fh, indent=1)
    if args.trace:
        chosen = {n: {"value": report["per_layer"][n], "unit": u} for n, u in per_layer_units.items()}
    else:
        chosen = {n: {"value": metrics[n], "unit": u} for n, u in end_to_end_units.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": chosen}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
