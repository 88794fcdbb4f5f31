"""Retrieval metrics, TREC-style run/qrels I/O, a brute-force search oracle,
and a training energy/emissions estimator.

MRR@k and recall@k share one judged-query mean: the cutoff check, the split
into judged and skipped queries (``evaluable_queries``, which logs nothing;
``modir eval`` reports the skipped ones) and the mean in run order are
written once, and each metric adds only its per-query formula.

The oracle, ``brute_force_search``, reads a plain corpus as one
``data.TermTable``, each passage by its offsets. Over an index's
``UnitCorpus`` it selects on a float32 table grouped by passage length (one
slice per block of equal-length passages) and scores only the passages
chosen, on the float64 rows that ``UnitCorpus.exact_rows`` decodes for them,
ties to the lower stored passage.

File formats are the standard whitespace layouts, split by
``data.text_fields``: qrels ``qid 0 pid grade`` and run
``qid Q0 pid rank score tag``. A run is ranked by its scores, not by its line
order, and a qrels file judges each (query, passage) pair once.
"""

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from . import scoring
from .data import TermTable, atomic_write, check_layout, text_fields
from .errors import EmptyInputError, InvalidConfigError, ParseError

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


class UnitCorpus:
    """An index's passages for the oracle (``CompressedIndex.unit_corpus``):
    ``ids`` ascending and ``offsets`` in stored order, as a ``TermTable``
    holds them, and ``exact_rows(passages)``, for an array of stored passage
    numbers, the one way to their float64 unit rows (``normalize_rows``
    output), passage after passage. A passage without rows is
    EmptyInputError.

    ``grouped_rows`` holds the same unit rows rounded to float32 (or those
    float64 rows themselves) in the length walk's order
    (``scoring.walk_rows``: by row count, stored order within each), not
    by the offsets. It serves ``brute_force_search`` only to choose which
    passages to score, one contiguous slice per chunk of equal-length
    passages (``scoring.maxsim_top_k`` with no ``rows``).
    """

    def __init__(self, ids, grouped_rows, offsets, exact_rows):
        self.ids, self.offsets = check_layout(type(self).__name__, ids, grouped_rows, offsets)
        if np.any(self.offsets[1:] == self.offsets[:-1]):
            raise EmptyInputError("a passage has no rows")
        self.grouped_rows, self.exact_rows = grouped_rows, exact_rows


def brute_force_search(query, corpus, k: int | None):
    """Exact MaxSim against every passage; the k best (all when k is None),
    descending score, ties to lower id.

    The oracle counterpart of the compressed two-stage search. ``corpus`` is
    a ``TermTable``, taken as it is, or a mapping of id -> matrix, put in
    the order of its ``str`` ids by ``TermTable.stack``, as ``build_index``
    orders it, so insertion order never matters, ties break in that order
    and ids come back as the index stores them. Each passage of a plain
    table or a mapping is scored alone with ``maxsim_score`` on its offset
    slice: this path is the independent per-passage reference. A
    ``UnitCorpus`` is already normalized and in that order, and is ranked by
    ``scoring.maxsim_top_k`` over its grouped table, a slice per block of
    equal-length passages, the selection re-rank uses: blocked scores choose
    the passages that could still make the top k, and only those are
    scored, on the float64 rows its ``exact_rows`` decodes for them, with
    ``scoring.maxsim_exact``, so every score has ``maxsim_unit``'s bits and
    ties still go to the lower id. The cutoff follows ``scoring.rank``
    and is checked first; the query must then pass ``scoring.check_query``
    at the corpus's width, as on both search stages, and an empty corpus
    gives ``[]``.
    """
    scoring.check_count(k, "cutoff k", none_means_all=True)
    table = corpus if isinstance(corpus, (TermTable, UnitCorpus)) else TermTable.stack(corpus)
    if not table.ids:
        return []
    if isinstance(table, UnitCorpus):
        q_unit = scoring.normalize_rows(scoring.check_query(query, table.grouped_rows.shape[1]))
        order, scores = scoring.maxsim_top_k(q_unit, table.grouped_rows, None, table.offsets, k, table.exact_rows)
        return [(table.ids[i], float(s)) for i, s in zip(order, scores)]
    q = scoring.check_query(query, table.rows.shape[1])
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
