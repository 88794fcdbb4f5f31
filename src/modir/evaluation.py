"""Retrieval metrics, TREC-style run/qrels I/O, a brute-force search oracle,
and a training energy/emissions estimator.

File formats are the standard whitespace layouts:
qrels ``qid 0 pid grade`` and run ``qid Q0 pid rank score tag``.
"""

import logging
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import scoring
from .data import TermTable, atomic_write, text_lines
from .errors import InvalidConfigError, ParseError

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Run / qrels containers


def evaluable_queries(run: dict, qrels: dict):
    """Split run queries into (judged with >= 1 positive grade, skipped)."""
    good, skipped = [], []
    for qid in run:
        judgments = qrels.get(qid)
        if judgments and any(grade > 0 for grade in judgments.values()):
            good.append(qid)
        else:
            skipped.append(qid)
    if skipped:
        log.info("skipping %d unjudged or all-negative queries: %s", len(skipped), skipped)
    return good, skipped


def _relevant(qrels_for_query: dict) -> set:
    return {pid for pid, grade in qrels_for_query.items() if grade > 0}


def mrr_at_k(run: dict, qrels: dict, k: int) -> float:
    """Mean over judged queries of 1/rank of the first relevant hit in the top k."""
    if k < 1:
        raise InvalidConfigError(f"cutoff k must be >= 1, got {k}")
    qids, _ = evaluable_queries(run, qrels)
    if not qids:
        return 0.0
    total = 0.0
    for qid in qids:
        relevant = _relevant(qrels[qid])
        for rank, (pid, _score) in enumerate(run[qid][:k], start=1):
            if pid in relevant:
                total += 1.0 / rank
                break
    return total / len(qids)


def recall_at_k(run: dict, qrels: dict, k: int) -> float:
    """Mean over judged queries of the fraction of relevant passages in the top k."""
    if k < 1:
        raise InvalidConfigError(f"cutoff k must be >= 1, got {k}")
    qids, _ = evaluable_queries(run, qrels)
    if not qids:
        return 0.0
    total = 0.0
    for qid in qids:
        relevant = _relevant(qrels[qid])
        retrieved = {pid for pid, _score in run[qid][:k]}
        total += len(relevant & retrieved) / len(relevant)
    return total / len(qids)


class UnitCorpus(TermTable):
    """A ``TermTable`` whose rows are already ``normalize_rows`` output, in
    an index's passage order (``CompressedIndex.unit_corpus``).

    ``brute_force_search`` scores each passage with ``maxsim_unit`` and
    neither normalizes nor sorts per query, which gives the same bits as
    scoring the raw matrices: normalization works row by row.
    """


def brute_force_search(query, corpus: Mapping, k: int):
    """Exact MaxSim against every passage, one passage at a time; descending
    score, ties to lower id.

    The oracle counterpart of the compressed two-stage search: insertion order
    of the corpus never matters because passages are sorted by id first, and
    ties break in this sorted order. A plain mapping is scored with
    ``maxsim_score``. A ``UnitCorpus`` is already normalized and sorted and
    is scored with ``maxsim_unit``. The oracle does not use re-ranking's
    blocked selection (``scoring.maxsim_top_k``), so comparing search with
    it checks that selection as well.
    """
    if k < 1:
        raise InvalidConfigError(f"k must be >= 1, got {k}")
    q = np.asarray(query, dtype=np.float64)
    if isinstance(corpus, UnitCorpus) and corpus.ids:
        scoring.check_pair(q, corpus.passages[0])
        q_unit = scoring.normalize_rows(q)
        ids = corpus.ids
        scores = np.array([scoring.maxsim_unit(q_unit, rows) for rows in corpus.passages])
    else:
        ids = sorted(corpus)
        scores = np.array([scoring.maxsim_score(q, corpus[pid]) for pid in ids])
    return [(ids[i], float(scores[i])) for i in scoring.rank(scores, k)]


# ---------------------------------------------------------------------------
# TREC file I/O


def read_qrels(path) -> dict:
    qrels: dict = {}
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 'qid 0 pid grade', got {line.strip()!r}", line=lineno)
        qid, _, pid, grade = parts
        try:
            grade = int(grade)
        except ValueError:
            raise ParseError(f"relevance grade {grade!r} is not an integer", line=lineno) from None
        if grade < 0:
            raise ParseError(f"relevance grade must be >= 0, got {grade}", line=lineno)
        qrels.setdefault(qid, {})[pid] = grade
    return qrels


def read_run(path) -> dict:
    run: dict = {}
    for lineno, line in text_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"expected 'qid Q0 pid rank score tag', got {line.strip()!r}", line=lineno)
        qid, _, pid, _rank, score, _tag = parts
        try:
            score = float(score)
        except ValueError:
            raise ParseError(f"score {score!r} is not a number", line=lineno) from None
        run.setdefault(qid, []).append((pid, score))
    for qid, ranking in run.items():
        pids = [pid for pid, _ in ranking]
        if len(pids) != len(set(pids)):
            raise ParseError(f"query {qid!r} ranks a passage twice")
    return run


def write_run(run: dict, path, tag: str = "modir"):
    """Ranked results to the 6-column format, ranks contiguous from 1; atomic."""
    with atomic_write(path) as fh:
        for qid in run:
            for rank, (pid, score) in enumerate(run[qid], start=1):
                fh.write(f"{qid} Q0 {pid} {rank} {score:.6f} {tag}\n")


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
            if getattr(self, name) <= 0:
                raise InvalidConfigError(f"{name} must be > 0")


def estimate_energy_emissions(profile: HardwareProfile):
    """(kWh, kgCO2eq): devices x TDP x hours / 1000, scaled by carbon efficiency."""
    kwh = profile.device_count * profile.tdp_watts * profile.train_hours / 1000.0
    return kwh, kwh * profile.carbon_efficiency
