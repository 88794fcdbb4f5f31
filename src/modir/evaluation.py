"""Retrieval metrics, TREC-style run/qrels I/O, a brute-force search oracle,
and a training energy/emissions estimator.

MRR@k and recall@k share one judged-query mean: the cutoff check, the split
into judged and skipped queries (``evaluable_queries``, which logs nothing;
``modir eval`` reports the skipped ones) and the mean in run order are
written once, and each metric adds only its per-query formula.

File formats are the standard whitespace layouts, split by
``data.text_fields``: qrels ``qid 0 pid grade`` and run
``qid Q0 pid rank score tag``. A run is ranked by its scores, not by its line
order, and a qrels file judges each (query, passage) pair once.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import scoring
from .data import TermTable, atomic_write, text_fields
from .errors import InvalidConfigError, ParseError

# ---------------------------------------------------------------------------
# Metrics


def evaluable_queries(run: dict, qrels: dict):
    """Split run queries into (judged with >= 1 positive grade, skipped)."""
    good, skipped = [], []
    for qid in run:
        judgments = qrels.get(qid)
        if judgments and any(grade > 0 for grade in judgments.values()):
            good.append(qid)
        else:
            skipped.append(qid)
    return good, skipped


def _judged_mean(run: dict, qrels: dict, k: int, per_query) -> float:
    """Mean over the judged queries, in run order, of ``per_query(top k pids,
    relevant pids)``; 0.0 when no query is judged. The cutoff is checked
    by ``scoring.check_count``."""
    scoring.check_count(k, "cutoff k")
    qids, _ = evaluable_queries(run, qrels)
    if not qids:
        return 0.0
    total = 0.0
    for qid in qids:
        relevant = {pid for pid, grade in qrels[qid].items() if grade > 0}
        total += per_query([pid for pid, _score in run[qid][:k]], relevant)
    return total / len(qids)


def mrr_at_k(run: dict, qrels: dict, k: int) -> float:
    """Mean over judged queries of 1/rank of the first relevant hit in the top k."""

    def reciprocal_rank(top, relevant):
        return next((1.0 / rank for rank, pid in enumerate(top, start=1) if pid in relevant), 0.0)

    return _judged_mean(run, qrels, k, reciprocal_rank)


def recall_at_k(run: dict, qrels: dict, k: int) -> float:
    """Mean over judged queries of the fraction of relevant passages in the top k."""
    return _judged_mean(run, qrels, k, lambda top, relevant: len(relevant.intersection(top)) / len(relevant))


class UnitCorpus(TermTable):
    """A ``TermTable`` whose rows are already ``normalize_rows`` output, in
    an index's passage order (``CompressedIndex.unit_corpus``).

    ``brute_force_search`` scores every passage of it with
    ``scoring.maxsim_exact``, the kernel re-rank's scores come from, and
    neither normalizes nor sorts per query, which gives the same bits as
    scoring the raw matrices: normalization works row by row.
    """


def brute_force_search(query, corpus: Mapping, k: int | None):
    """Exact MaxSim against every passage; the k best (all when k is None),
    descending score, ties to lower id.

    The oracle counterpart of the compressed two-stage search. A plain
    mapping is put in the order of its ``str`` ids by ``TermTable.stack``, as
    ``build_index`` orders it, so insertion order never matters, ties break
    in that order and ids come back as the index stores them; each passage
    is scored alone with ``maxsim_score``, the independent per-passage
    reference. A ``UnitCorpus`` is already normalized and in that order, and
    every passage of it is scored with ``scoring.maxsim_exact``, which gives
    each passage its own ``maxsim_unit`` product. The oracle does not use
    re-ranking's blocked selection (``scoring.maxsim_top_k``, whose blocked
    matmuls only choose which passages to score), so comparing search with
    it checks that selection as well. The cutoff follows ``scoring.rank``
    and is checked first; the query must then pass ``scoring.check_query``
    at the corpus's width, as on both search stages, and an empty corpus
    gives ``[]``.
    """
    scoring.check_count(k, "cutoff k", none_means_all=True)
    table = corpus if isinstance(corpus, UnitCorpus) else TermTable.stack(corpus)
    if not table.ids:
        return []
    q = scoring.check_query(query, table.rows.shape[1])
    if isinstance(corpus, UnitCorpus):
        rows = np.arange(table.rows.shape[0])
        scores = scoring.maxsim_exact(scoring.normalize_rows(q), table.rows, rows, table.offsets)
    else:
        scores = [scoring.maxsim_score(q, table.rows[a:b]) for a, b in pairwise(table.offsets.tolist())]
    return [(table.ids[i], float(scores[i])) for i in scoring.rank(scores, k)]


# ---------------------------------------------------------------------------
# TREC file I/O


def read_qrels(path) -> dict:
    """qid -> {pid: grade}; a second judgment of one passage for one query
    is a ParseError, as a repeated passage in a run is."""
    qrels: dict = {}
    for lineno, (qid, _, pid, grade) in text_fields(path, "qid 0 pid grade"):
        try:
            grade = int(grade)
        except ValueError:
            raise ParseError(f"relevance grade {grade!r} is not an integer", line=lineno) from None
        if grade < 0:
            raise ParseError(f"relevance grade must be >= 0, got {grade}", line=lineno)
        judgments = qrels.setdefault(qid, {})
        if pid in judgments:
            raise ParseError(f"query {qid!r} judges passage {pid!r} twice", line=lineno)
        judgments[pid] = grade
    return qrels


def read_run(path) -> dict:
    """qid -> [(pid, score)], best first: highest score first, score ties by
    the rank column, whatever the line order. A run that ``write_run`` wrote
    reads back in its written order, since rounding keeps the scores' order.
    A score that is not a number, NaN included, is a ParseError."""
    lines: dict = {}
    for lineno, (qid, _, pid, rank, score, _tag) in text_fields(path, "qid Q0 pid rank score tag"):
        try:
            rank = int(rank)
        except ValueError:
            raise ParseError(f"rank {rank!r} is not an integer", line=lineno) from None
        try:
            value = float(score)
        except ValueError:
            value = np.nan
        if np.isnan(value):  # a NaN score has no place in a ranking
            raise ParseError(f"score {score!r} is not a number", line=lineno)
        lines.setdefault(qid, []).append((pid, rank, value))
    run = {}
    for qid, ranking in lines.items():
        pids, ranks, scores = zip(*ranking)
        if len(pids) != len(set(pids)):
            raise ParseError(f"query {qid!r} ranks a passage twice")
        run[qid] = [(pids[i], scores[i]) for i in np.lexsort((ranks, np.negative(scores)))]
    return run


def check_run_id(text):
    """InvalidConfigError unless ``text`` reads back from a run line as one
    field: an id that is empty or holds whitespace cannot go into a run."""
    if str(text).split() != [str(text)]:
        raise InvalidConfigError(f"id {text!r} is empty or holds whitespace; a run file cannot hold it")


def write_run(run: dict, path):
    """Ranked results to the 6-column format, tagged ``modir``, ranks
    contiguous from 1; atomic. Every query and passage id passes
    ``check_run_id`` before the file is opened."""
    for text in [*run, *(pid for ranking in run.values() for pid, _ in ranking)]:
        check_run_id(text)
    with atomic_write(path) as fh:
        for qid in run:
            for rank, (pid, score) in enumerate(run[qid], start=1):
                fh.write(f"{qid} Q0 {pid} {rank} {score:.6f} modir\n")


# ---------------------------------------------------------------------------
# Energy / emissions


@dataclass(frozen=True)
class HardwareProfile:
    """Training hardware description for the energy estimate."""

    device_count: int
    tdp_watts: float
    train_hours: float
    carbon_efficiency: float  # kgCO2eq per kWh

    def __post_init__(self):
        for name in ("device_count", "tdp_watts", "train_hours", "carbon_efficiency"):
            if not 0 < getattr(self, name) < math.inf:  # False for NaN too
                raise InvalidConfigError(f"{name} must be finite and > 0")


def estimate_energy_emissions(profile: HardwareProfile):
    """(kWh, kgCO2eq): devices x TDP x hours / 1000, scaled by carbon efficiency."""
    kwh = profile.device_count * profile.tdp_watts * profile.train_hours / 1000.0
    return kwh, kwh * profile.carbon_efficiency
