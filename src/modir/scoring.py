"""Sequence preparation and late-interaction similarity functions.

Queries are padded to a fixed length with mask tokens so the extra
contextualized positions take part in scoring (query augmentation);
passages are only truncated.  Relevance between two bags of term
embeddings is the sum of per-query-term maximum cosines (MaxSim).
``check_query`` is the one rule for a valid query matrix, shared by both
search stages, the oracle and ``modir search``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, InvalidConfigError

# Reserved vocabulary slots. Text tokens start at NUM_SPECIAL.
CLS_ID = 0
Q_MARKER_ID = 1
P_MARKER_ID = 2
MASK_ID = 3
NUM_SPECIAL = 4

_MAXSIM_BLOCK = 1024  # rows per blocked MaxSim matmul in maxsim_top_k: about 1 MB of rows


@dataclass(frozen=True)
class PreparedSequence:
    """Token ids ready for encoding: special markers added, length bounded.

    A query has exactly ``n`` positions ([CLS], [Q], text..., [M] padding);
    a passage has at most ``m`` positions ([CLS], [P], text...) with no
    padding.
    """

    token_ids: tuple[int, ...]
    language: str

    def __len__(self) -> int:
        return len(self.token_ids)


def prepare_query(tokens, n: int, lang: str) -> PreparedSequence:
    """Frame query tokens as [CLS], [Q], t1..., padded with [M] to exactly n."""
    if n < 3:
        raise InvalidConfigError(f"query length n={n} must be at least 3")
    text = list(tokens)[: n - 2]
    ids = [CLS_ID, Q_MARKER_ID] + text + [MASK_ID] * (n - 2 - len(text))
    return PreparedSequence(tuple(ids), language=lang)


def prepare_passage(tokens, m: int, lang: str = "") -> PreparedSequence:
    """Frame passage tokens as [CLS], [P], t1..., truncated to at most m."""
    if m < 3:
        raise InvalidConfigError(f"passage length m={m} must be at least 3")
    text = list(tokens)[: m - 2]
    ids = [CLS_ID, P_MARKER_ID] + text
    return PreparedSequence(tuple(ids), language=lang)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return rows scaled to unit norm; zero rows stay zero (they score 0)."""
    h = np.asarray(matrix, dtype=np.float64)
    if h.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {h.shape}")
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return h / np.where(norms == 0.0, 1.0, norms)


def check_query(query, dim: int, name: str = "query") -> np.ndarray:
    """The query as a finite float64 (terms, dim) matrix. A query that is not
    2-d or has another width is DimensionMismatchError, one without rows is
    EmptyInputError (a search needs a query row; MaxSim of no rows is 0), and
    one holding a NaN or an infinity is InvalidConfigError (it would score
    every passage NaN). Each message starts with ``name``."""
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != dim:
        raise DimensionMismatchError(f"{name} must be a (terms, {dim}) matrix, got shape {q.shape}")
    if q.shape[0] == 0:
        raise EmptyInputError(f"{name} has no rows")
    if not np.isfinite(q).all():
        raise InvalidConfigError(f"{name} contains non-finite values")
    return q


def maxsim_score(hq, hp) -> float:
    """Sum over query rows of the maximum cosine against any passage row.

    Every query row contributes, including the [CLS]/[Q]/mask positions.
    """
    hq = np.asarray(hq, dtype=np.float64)
    hp = np.asarray(hp, dtype=np.float64)
    if hq.ndim != 2 or hp.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d matrices, got shapes {hq.shape} and {hp.shape}")
    if hq.shape[1] != hp.shape[1]:
        raise DimensionMismatchError(f"embedding widths differ: {hq.shape[1]} vs {hp.shape[1]}")
    if hp.shape[0] == 0:
        raise EmptyInputError("passage embedding matrix has no rows")
    return maxsim_unit(normalize_rows(hq), normalize_rows(hp))


def maxsim_unit(q_unit: np.ndarray, p_unit: np.ndarray) -> float:
    """MaxSim of rows already unit-norm, one passage per call. This is the
    score every ranking reports: BLAS bits can change with the matrix shape,
    so ``maxsim_top_k`` scores blocks of passages only to choose which
    passages go through this kernel."""
    return float((q_unit @ p_unit.T).max(axis=1).sum())


def maxsim_rounding_gap(n_terms: int, dim: int) -> float:
    """Bound on how far two evaluations of one MaxSim over unit rows (say a
    blocked matmul and ``maxsim_unit``) can differ.

    With u = 2**-53 and g(m) = m u / (1 - m u), a dot product of two rows of
    width ``dim``, summed in any order with or without fused multiply-adds,
    is within g(dim) |q| |p| of the real value (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.1). A maximum adds no
    rounding and moves by at most the largest error of its arguments. The
    sum of ``n_terms`` maxima, each at most 1 + g(dim) in magnitude, adds at
    most g(n_terms - 1) n_terms (1 + g(dim)). So each evaluation is within
    about n_terms (dim + n_terms) u of the real MaxSim, and two evaluations
    are within 2 n_terms (dim + n_terms) u of each other. The bound returned
    is twice that: rows from ``normalize_rows`` have norms of
    1 +- (dim / 2 + 2) u rather than 1, and g(m) exceeds m u, both by far
    less than the factor 2 allows.
    """
    return 2.0 * 2.0 * n_terms * (dim + n_terms) * 2.0**-53


def maxsim_top_k(q_unit: np.ndarray, table: np.ndarray, rows, offsets, k: int | None = None):
    """The k best passages by ``maxsim_unit`` (all when k is None), best
    first with ties to the lower passage index, and their scores. A k that
    ``rank`` rejects is rejected before any passage is scored.

    Passage i's unit rows are ``table[rows[offsets[i]:offsets[i + 1]]]``:
    ``rows`` holds positions in ``table``, and every passage has at least
    one. The result is bit-identical to ranking ``maxsim_unit`` of every
    passage, for any k.

    When k is below the passage count, whole passages are first scored in
    blocks of about ``_MAXSIM_BLOCK`` rows: one ``q_unit @ block.T``, then
    per-term maxima by ``np.maximum.reduceat`` at the passage starts, then a
    sum per passage. Let gap be ``maxsim_rounding_gap``, the most a blocked
    score can differ from the passage's ``maxsim_unit`` score, and t the k-th
    best blocked score. At least k passages score t or more blocked, so at
    least k score t - gap or more exactly, and the k-th best exact score is
    at least t - gap. Every passage that scores that much exactly therefore
    has a blocked score of at least t - 2 gap. Only those passages are scored
    again with ``maxsim_unit`` and ranked by ``rank``: they hold the exact
    top k and every exact tie at the cut, in ascending passage order. A
    non-finite blocked score sends every passage to ``maxsim_unit``.
    """
    _check_cutoff(k)
    n = len(offsets) - 1
    survivors = np.arange(n)
    if k is not None and k < n:
        blocked = _blocked_maxsim(q_unit, table, rows, offsets)
        if np.isfinite(blocked).all():
            cut = np.partition(blocked, n - k)[n - k]
            survivors = np.flatnonzero(blocked >= cut - 2.0 * maxsim_rounding_gap(*q_unit.shape))
    exact = np.array([maxsim_unit(q_unit, table[rows[offsets[i] : offsets[i + 1]]]) for i in survivors])
    order = rank(exact, k)
    return survivors[order], exact[order]


def _blocked_maxsim(q_unit: np.ndarray, table: np.ndarray, rows, offsets) -> np.ndarray:
    """Approximate MaxSim per passage, whole passages in blocks of at most
    ``_MAXSIM_BLOCK`` rows (a longer passage is a block of its own)."""
    n = len(offsets) - 1
    out = np.empty(n)
    first = 0
    while first < n:
        last = max(first + 1, int(np.searchsorted(offsets, offsets[first] + _MAXSIM_BLOCK, side="right")) - 1)
        lo, hi = offsets[first], offsets[last]
        sims = q_unit @ table[rows[lo:hi]].T  # terms x rows
        out[first:last] = np.maximum.reduceat(sims, offsets[first:last] - lo, axis=1).sum(axis=0)
        first = last
    return out


def _check_cutoff(k: int | None):
    if k is not None and k < 1:
        raise InvalidConfigError(f"cutoff k must be None (all) or >= 1, got {k}")


def rank(scores, k: int | None = None) -> np.ndarray:
    """Indices of the k best (all when k is None) along the last axis, best
    first; ties keep input order, so ids listed ascending tie to the lower.
    Any other k below 1 is InvalidConfigError.

    The result is always the first k of a stable descending argsort. When
    k < n, ``np.partition`` finds the k-th best value, and only the entries
    at or above it are sorted: every other entry ranks after all of them.
    A cut that leaves fewer than k entries (NaN scores) or, in a matrix,
    unequal counts per row falls back to sorting everything.
    """
    _check_cutoff(k)
    neg = -np.asarray(scores)
    if k is not None and k < neg.shape[-1]:
        keep = neg <= np.partition(neg, k - 1, axis=-1)[..., k - 1 : k]
        counts = keep.sum(axis=-1)
        width = counts.max(initial=0)
        if width >= k and np.all(counts == width):
            survivors = np.nonzero(keep)[-1].reshape(*neg.shape[:-1], width)  # ascending per row
            order = np.argsort(np.take_along_axis(neg, survivors, axis=-1), axis=-1, kind="stable")
            return np.take_along_axis(survivors, order[..., :k], axis=-1)
    return np.argsort(neg, axis=-1, kind="stable")[..., :k]
