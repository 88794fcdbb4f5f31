"""One benchmark phase in its own process: a ``modir`` command or the
encoder's passage-encoding loop.

Usage: ``python3 bench_child.py SPEC.json``. The spec names the phase, its
``modir`` argv and where to write the result. The child runs the command
through ``modir.cli.main``, exactly as the ``modir`` entry point does, with
timing wrappers from ``bench_trace`` around the calls that mark the
command's timed units; with ``"trace": true`` every public layer function in
``CALLS`` is wrapped as well. After the command it records peak RSS, removes
the wrappers and runs the phase's correctness checks.

With ``"setup_only": true`` the child runs only the command's set-up, up to
its first timed unit, and reports how long that took; the parent starts such
children to take further set-up samples, each in a fresh process as a CLI
user's would be.
"""

import json
import math
import os
import sys
import time

import numpy as np

from bench_stats import Checks
from bench_trace import NO_QUERY, Recorder, self_time_by_name

from modir import cli, data, encoder, evaluation, index, scoring

# Per phase: the span that is one timed unit, and the top span's name.
UNIT = {
    "pretrain": ("encoder.mlm_step", "cli.train"),
    "finetune": ("encoder.finetune_step", "cli.train"),
    "encode": ("encoder.encode", "phase.encode"),
    "index": ("index.build_index", "cli.index"),
    "search": ("index.search", "cli.search"),
    "exact": ("evaluation.brute_force_search", "cli.search_exact"),
}

# Spans the untraced run needs besides the unit: build time and the loaded index.
ESSENTIAL = {"index.save_index", "index.load_index"}

# Every wrapped call as (owner, attribute, span name). The span name is the
# layer (module), then the class if any, then the function. read_embedding_block
# stays unwrapped so that parsing an embedding block is read_records' own time.
CALLS = [
    (data, "read_records", "data.read_records"),
    (data, "read_jsonl_records", "data.read_jsonl_records"),
    (data, "read_triples", "data.read_triples"),
    (data, "tokenize", "data.tokenize"),
    (scoring, "prepare_query", "scoring.prepare_query"),
    (scoring, "prepare_passage", "scoring.prepare_passage"),
    (scoring, "normalize_rows", "scoring.normalize_rows"),
    (scoring, "maxsim_score", "scoring.maxsim_score"),
    (index, "build_index", "index.build_index"),
    (index, "select_centroids", "index.select_centroids"),
    (index, "nearest_centroid_ids", "index.nearest_centroid_ids"),
    (index, "fit_codec", "index.fit_codec"),
    (index.ResidualCodec, "encode", "index.ResidualCodec.encode"),
    (index, "pack_codes", "index.pack_codes"),
    (index, "unpack_codes", "index.unpack_codes"),
    (index, "save_index", "index.save_index"),
    (index, "load_index", "index.load_index"),
    (index, "search", "index.search"),
    (index, "approximate_candidates", "index.approximate_candidates"),
    (index, "exact_rerank", "index.exact_rerank"),
    (index.CompressedIndex, "decompress_passage", "index.CompressedIndex.decompress_passage"),
    (index.CompressedIndex, "decompress_embeddings", "index.CompressedIndex.decompress_embeddings"),
    (index.CompressedIndex, "decompressed_corpus", "index.CompressedIndex.decompressed_corpus"),
    (evaluation, "brute_force_search", "evaluation.brute_force_search"),
    (evaluation, "write_run", "evaluation.write_run"),
    (encoder, "init_params", "encoder.init_params"),
    (encoder, "mlm_step", "encoder.mlm_step"),
    (encoder, "mlm_loss_and_grads", "encoder.mlm_loss_and_grads"),
    (encoder, "finetune_step", "encoder.finetune_step"),
    (encoder, "total_loss_and_grads", "encoder.total_loss_and_grads"),
    (encoder, "encode", "encoder.encode"),
    (encoder, "save_checkpoint", "encoder.save_checkpoint"),
    (encoder, "load_checkpoint", "encoder.load_checkpoint"),
]


class SetupDone(Exception):
    """Raised at the first timed unit when only set-up is being timed."""


def _status_mb(field: str) -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/self/status has no {field}")


def rss_mb() -> float:
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak RSS of this program image. Unlike ``getrusage``'s maxrss, VmHWM
    does not carry over the parent's size from before ``exec``."""
    return _status_mb("VmHWM")


def dir_bytes(path) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Phase:
    def __init__(self, spec: dict):
        self.spec = spec
        self.kind = spec["phase"]
        self.unit, self.top = UNIT[self.kind]
        self.rec = Recorder()
        self.losses: list = []
        self.results: list = []  # (query matrix, ranking) per two-stage query
        self.candidates: list = []  # first-stage ids per query (traced)
        self.idx = None  # the index built or loaded by the command
        self.rss_after_load = None
        self.checks = Checks()

    # -- wrappers ----------------------------------------------------------

    def _hooks(self) -> dict:
        """Span name -> (before, after) callbacks; they run outside the span."""
        rec = self.rec
        count = lambda key: (None, lambda a, k, r: rec.add(key))  # noqa: E731
        keep_index = (None, lambda a, k, r: setattr(self, "idx", r))
        hooks = {
            "data.read_records": (None, lambda a, k, r: rec.add("data.read_records.bytes", os.path.getsize(a[0]))),
            "data.tokenize": count("data.tokenize.calls"),
            "scoring.normalize_rows": count("scoring.normalize_rows.calls"),
            "scoring.maxsim_score": count("scoring.maxsim_score.calls"),
            "index.build_index": keep_index,
            "index.load_index": keep_index,
            "index.nearest_centroid_ids": (None, lambda a, k, r: rec.add("index.nearest_centroid_ids.rows", len(a[0]))),
            "index.save_index": (None, lambda a, k, r: rec.add("index.save_index.bytes", dir_bytes(a[1]))),
            "index.search": (self._before_query, lambda a, k, r: self.results.append((a[0], r))),
            "index.approximate_candidates": (None, self._after_candidates),
            "index.exact_rerank": (None, lambda a, k, r: rec.add("index.reranked", len(a[1]))),
            "index.CompressedIndex.decompress_passage": count("index.CompressedIndex.decompress_passage.calls"),
            "index.CompressedIndex.decompress_embeddings": (None, self._after_decompress),
            "evaluation.brute_force_search": (self._before_query, lambda a, k, r: rec.add("evaluation.brute_force_search.calls")),
            "encoder.mlm_step": (None, lambda a, k, r: self.losses.append(float(r[1]))),
            "encoder.finetune_step": (None, lambda a, k, r: self.losses.append(float(r[1]))),
            "encoder.encode": (None, lambda a, k, r: rec.add("encoder.encode.tokens", len(a[0]))),
        }
        return hooks

    def install(self):
        hooks = self._hooks()
        for owner, attr, name in CALLS:
            if self.spec["trace"] or name == self.unit or name in ESSENTIAL:
                before, after = hooks.get(name, (None, None))
                self.rec.wrap(owner, attr, name, on_call=after, before=before)

    def _before_query(self, args, kwargs):
        if self.rec.query == NO_QUERY:
            self.rss_after_load = rss_mb()
        self.rec.query += 1

    def _after_candidates(self, args, kwargs, result):
        self.rec.add("index.candidates", len(result))
        self.candidates.append([pid for pid, _ in result])

    def _after_decompress(self, args, kwargs, result):
        if self.rec.query != NO_QUERY:
            self.rec.add("index.decompressed_rows_in_queries", len(result))

    # -- running -----------------------------------------------------------

    def body(self):
        """The phase's work: one CLI command, or the encoding loop."""
        if self.kind != "encode":
            code = cli.main(self.spec["argv"])
            if code != 0:
                raise RuntimeError(f"modir {' '.join(self.spec['argv'])} exited with {code}")
            return
        enc = self.spec["encode"]
        params = encoder.load_checkpoint(enc["checkpoint"])
        chunk, chunks = enc["chunk"]
        self.finite = True
        for rec in data.read_records(enc["passages"])[chunk::chunks]:
            seq = scoring.prepare_passage(data.tokenize(rec.text, params.vocab_size), enc["m"], rec.language)
            self.finite &= bool(np.isfinite(encoder.encode(seq, params)).all())

    def probe_setup(self) -> float:
        """Seconds from the start of the phase to its first timed unit."""
        owner, attr = next((o, a) for o, a, n in CALLS if n == self.unit)
        original = owner.__dict__[attr]

        def stop(*args, **kwargs):
            raise SetupDone

        setattr(owner, attr, stop)
        start = time.perf_counter()
        try:
            self.body()
        except SetupDone:
            return time.perf_counter() - start
        finally:
            setattr(owner, attr, original)
        raise RuntimeError(f"{self.kind} finished without reaching {self.unit}")

    def run(self) -> dict:
        self.install()
        top = self.rec.open(self.top)
        try:
            self.body()
        finally:
            self.rec.close(top)
            self.rec.uninstall()
        peak = peak_rss_mb()
        rss_after = rss_mb()
        spans = self.rec.spans
        units = self.rec.of(self.unit)
        out = {
            "phase": self.kind,
            "wall_s": spans[top][2] - spans[top][1],
            "setup_s": units[0][1] - spans[top][1] if units else None,
            "units": len(units),
            "unit_times": [[s[1], s[2]] for s in units],
            "peak_mb": peak,
        }
        if self.kind == "index":
            out["build_s"] = sum(s[2] - s[1] for s in self.rec.of("index.build_index") + self.rec.of("index.save_index"))
        if self.kind == "search":
            out["resident_growth_mb"] = rss_after - self.rss_after_load
            out["candidates"] = self.candidates
        if self.spec["trace"]:
            out["self_s"] = self_time_by_name(spans)
            out["total_s"] = {}
            for name, start, end, _, _ in spans:
                out["total_s"][name] = out["total_s"].get(name, 0.0) + end - start
            out["counts"] = self.rec.counts
            with open(self.spec["spans"], "w") as fh:
                names = sorted({s[0] for s in spans})
                code = {n: i for i, n in enumerate(names)}
                json.dump({"names": names, "spans": [[code[s[0]], s[1], s[2], s[3], s[4]] for s in spans]}, fh)
        getattr(self, f"check_{self.kind}", lambda o: None)(out)
        out["checks"] = vars(self.checks)
        return out

    # -- checks --------------------------------------------------------------

    def _check_losses(self, out):
        finite = bool(self.losses) and all(math.isfinite(x) for x in self.losses)
        self.checks.check(finite, f"{self.kind}: missing or non-finite loss")
        ckpt = self.spec["checkpoint_out"]
        again = ckpt + ".again"
        encoder.save_checkpoint(encoder.load_checkpoint(ckpt), again)
        with open(ckpt, "rb") as a, open(again, "rb") as b:
            self.checks.check(a.read() == b.read(), f"{self.kind}: checkpoint round trip is not byte-exact")
        os.remove(again)

    check_pretrain = _check_losses
    check_finetune = _check_losses

    def check_encode(self, out):
        self.checks.check(self.finite, "encode: non-finite encoding")

    def check_index(self, out):
        built = self.idx
        loaded = index.load_index(self.spec["index_dir"])
        params = index.SearchParams(**self.spec["search_params"])
        for rec in data.read_records(self.spec["queries"])[: self.spec["check_queries"]]:
            same = index.search(rec.embeddings, built, params) == index.search(rec.embeddings, loaded, params)
            self.checks.check(same, f"index: query {rec.id} ranks differently after save and load")
        sizes = np.bincount(built.centroid_ids, minlength=built.centroid_count)
        out["list_size_max_over_mean"] = float(sizes.max() / sizes.mean())
        out["empty_centroids"] = int((sizes == 0).sum())

    def check_search(self, out):
        idx = self.idx
        step = max(1, len(self.results) // self.spec["check_queries"])
        for query, ranking in self.results[::step][: self.spec["check_queries"]]:
            for pid, score in ranking:
                expect = scoring.maxsim_score(query, idx.decompress_passage(idx.internal_passage(pid)))
                ok = math.isclose(expect, score, rel_tol=1e-5)
                self.checks.check(ok, f"search: re-ranked score of {pid} differs from maxsim_score")


def main(spec_path) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    phase = Phase(spec)
    result = {"setup_s": phase.probe_setup()} if spec.get("setup_only") else phase.run()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
