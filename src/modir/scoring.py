"""Sequence preparation and late-interaction similarity functions.

Queries are padded to a fixed length with mask tokens so the extra
contextualized positions take part in scoring (query augmentation);
passages are only truncated.  Relevance between two bags of term
embeddings is either the sum of per-query-term maximum cosines (MaxSim)
or the cosine of pooled single-vector representations.
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

POOLING_MODES = ("mean", "max", "cls")


@dataclass(frozen=True)
class PreparedSequence:
    """Token ids ready for encoding: special markers added, length bounded.

    A query has exactly ``n`` positions ([CLS], [Q], text..., [M] padding);
    a passage has at most ``m`` positions ([CLS], [P], text...) with no
    padding.
    """

    token_ids: tuple[int, ...]
    kind: str  # "query" | "passage"
    language: str

    def __len__(self) -> int:
        return len(self.token_ids)


@dataclass(frozen=True)
class SimilarityConfig:
    """Selects the similarity function; ``pooling`` only applies in pooled mode."""

    mode: str = "maxsim"  # "maxsim" | "pooled"
    pooling: str = "mean"

    def __post_init__(self):
        if self.mode not in ("maxsim", "pooled"):
            raise InvalidConfigError(f"unknown similarity mode {self.mode!r}")
        if self.mode == "pooled" and self.pooling not in POOLING_MODES:
            raise InvalidConfigError(f"unknown pooling mode {self.pooling!r}")


def prepare_query(tokens, n: int, lang: str) -> PreparedSequence:
    """Frame query tokens as [CLS], [Q], t1..., padded with [M] to exactly n."""
    if n < 3:
        raise InvalidConfigError(f"query length n={n} must be at least 3")
    text = list(tokens)[: n - 2]
    ids = [CLS_ID, Q_MARKER_ID] + text + [MASK_ID] * (n - 2 - len(text))
    return PreparedSequence(tuple(ids), kind="query", language=lang)


def prepare_passage(tokens, m: int, lang: str = "") -> PreparedSequence:
    """Frame passage tokens as [CLS], [P], t1..., truncated to at most m."""
    if m < 3:
        raise InvalidConfigError(f"passage length m={m} must be at least 3")
    text = list(tokens)[: m - 2]
    ids = [CLS_ID, P_MARKER_ID] + text
    return PreparedSequence(tuple(ids), kind="passage", language=lang)


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return rows scaled to unit norm; zero rows stay zero (they score 0)."""
    h = np.asarray(matrix, dtype=np.float64)
    if h.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d matrix, got shape {h.shape}")
    norms = np.linalg.norm(h, axis=1, keepdims=True)
    return h / np.where(norms == 0.0, 1.0, norms)


def cosine(u, v) -> float:
    """Cosine similarity in [-1, 1]; 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatchError(f"cosine needs equal-length vectors, got {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float((u / nu) @ (v / nv))


def check_pair(hq: np.ndarray, hp: np.ndarray):
    """Both 2-d with equal widths, and the passage has rows; typed errors otherwise."""
    if hq.ndim != 2 or hp.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d matrices, got shapes {hq.shape} and {hp.shape}")
    if hq.shape[1] != hp.shape[1]:
        raise DimensionMismatchError(f"embedding widths differ: {hq.shape[1]} vs {hp.shape[1]}")
    if hp.shape[0] == 0:
        raise EmptyInputError("passage embedding matrix has no rows")


def maxsim_score(hq, hp) -> float:
    """Sum over query rows of the maximum cosine against any passage row.

    Every query row contributes, including the [CLS]/[Q]/mask positions.
    """
    hq = np.asarray(hq, dtype=np.float64)
    hp = np.asarray(hp, dtype=np.float64)
    check_pair(hq, hp)
    return maxsim_unit(normalize_rows(hq), normalize_rows(hp))


def maxsim_unit(q_unit: np.ndarray, p_unit: np.ndarray) -> float:
    """MaxSim of rows already unit-norm. One passage per call: BLAS bits can
    change with the matrix shape, and every caller must match the oracle's."""
    return float((q_unit @ p_unit.T).max(axis=1).sum())


def rank(scores, k: int | None = None) -> np.ndarray:
    """Indices of the k best (all when k is None) along the last axis, best
    first; ties keep input order, so ids listed ascending tie to the lower.

    The result is always the first k of a stable descending argsort. When
    k < n, ``np.partition`` finds the k-th best value, and only the entries
    at or above it are sorted: every other entry ranks after all of them.
    A cut that leaves fewer than k entries (NaN scores) or, in a matrix,
    unequal counts per row falls back to sorting everything.
    """
    neg = -np.asarray(scores)
    if k is not None and 0 < k < neg.shape[-1]:
        keep = neg <= np.partition(neg, k - 1, axis=-1)[..., k - 1 : k]
        counts = keep.sum(axis=-1)
        width = counts.max(initial=0)
        if width >= k and np.all(counts == width):
            survivors = np.nonzero(keep)[-1].reshape(*neg.shape[:-1], width)  # ascending per row
            order = np.argsort(np.take_along_axis(neg, survivors, axis=-1), axis=-1, kind="stable")
            return np.take_along_axis(survivors, order[..., :k], axis=-1)
    return np.argsort(neg, axis=-1, kind="stable")[..., :k]


def pool_rows(matrix: np.ndarray, pooling: str) -> np.ndarray:
    """Collapse a term matrix to one vector by mean, element-wise max, or first row."""
    if pooling == "mean":
        return np.mean(matrix, axis=0)
    if pooling == "max":
        return np.max(matrix, axis=0)
    if pooling == "cls":
        return matrix[0]
    raise InvalidConfigError(f"unknown pooling mode {pooling!r}")


def pooled_score(hq, hp, pooling: str = "mean") -> float:
    """Cosine of the pooled sequence representations."""
    hq = np.asarray(hq, dtype=np.float64)
    hp = np.asarray(hp, dtype=np.float64)
    check_pair(hq, hp)
    if hq.shape[0] == 0:
        raise EmptyInputError("query embedding matrix has no rows")
    return cosine(pool_rows(hq, pooling), pool_rows(hp, pooling))


def score(hq, hp, config: SimilarityConfig) -> float:
    """Dispatch to maxsim_score or pooled_score per the config."""
    if config.mode == "maxsim":
        return maxsim_score(hq, hp)
    return pooled_score(hq, hp, config.pooling)
