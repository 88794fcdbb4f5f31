"""Sequence preparation and late-interaction similarity functions.

Queries are padded to a fixed length with mask tokens so the extra
contextualized positions take part in scoring (query augmentation);
passages are only truncated.  Relevance between two bags of term
embeddings is the sum of per-query-term maximum cosines (MaxSim);
``maxsim_exact`` is the one kernel every reported score of many passages
comes from, with each passage's bits from its own product. It, and the
blocked selection of ``maxsim_top_k`` that chooses which passages re-rank
and the oracle score, take the passages in one length walk: grouped by row
count, stored order within each count, in chunks of about
``_MAXSIM_BLOCK`` rows. The oracle's float32 table is held in that order, so
each chunk is one contiguous slice; every score and every tie still goes by
stored passage number, ties to the lower.
``check_query`` is the one rule for a valid query matrix, shared by both
search stages, the oracle and ``modir search``, and ``check_count`` the one
rule for a cutoff or a search knob, an integer of at least 1.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionMismatchError, EmptyInputError, InvalidConfigError

# Reserved vocabulary slots. Text tokens start at NUM_SPECIAL.
CLS_ID = 0
Q_MARKER_ID = 1
P_MARKER_ID = 2
MASK_ID = 3
NUM_SPECIAL = 4

_MAXSIM_BLOCK = 1024  # rows gathered per MaxSim matmul or stack (maxsim_top_k, maxsim_exact): about 1 MB


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


def check_count(value, name: str, none_means_all: bool = False):
    """InvalidConfigError naming ``name`` unless ``value`` is an integer of
    at least 1, or None when ``none_means_all``. A bool is not an integer
    here (True would run as 1), nor is a float, even 20.0 (numpy refuses it
    as a partition index, deep inside a search). This is the one rule for
    every ranking cutoff (``rank``, ``maxsim_top_k``, the metrics' k) and
    every ``SearchParams`` knob."""
    if value is None and none_means_all:
        return
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidConfigError(f"{name} must be {'None (all) or ' if none_means_all else ''}>= 1, got {value}")


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
    """MaxSim of rows already unit-norm, one passage: the definition of the
    score every ranking reports. BLAS bits can change with the matrix shape,
    so ``maxsim_exact`` gives each passage this very product, and
    ``maxsim_top_k`` scores blocks of passages only to choose which
    passages to score exactly."""
    return float((q_unit @ p_unit.T).max(axis=1).sum())


def maxsim_exact(q_unit: np.ndarray, rows: np.ndarray, offsets) -> np.ndarray:
    """``maxsim_unit`` of every passage, bit for bit.

    Passage i's unit rows are ``rows[offsets[i]:offsets[i + 1]]``, float64,
    and every passage has at least one (EmptyInputError otherwise). Each
    chunk of the length walk (``_length_chunks``), at most
    ``_MAXSIM_BLOCK // L`` passages of L rows (one if L is larger), is
    stacked into one (items, L, dim) gather. ``np.matmul(q_unit,
    P.transpose(0, 2, 1))`` makes one BLAS call per item with the shape and
    strides of ``q_unit @ p_unit.T``
    (``tests/test_scoring.py::TestStackedMaxSimKeepsBits``), so each passage
    keeps its own product. A maximum is exact, so the per-term maxima are
    taken over a contiguous (L, items, terms) copy, which is fast; the term
    sum runs along each passage's contiguous term row, as ``maxsim_unit``'s
    ``.sum()`` does.
    """
    out = np.empty(len(offsets) - 1)
    for items, _, n_rows in _length_chunks(offsets):
        stack = rows[(offsets[items, None] + np.arange(n_rows)).reshape(-1)].reshape(items.size, n_rows, -1)
        sims = np.matmul(q_unit, stack.transpose(0, 2, 1))  # items x terms x rows
        out[items] = sims.transpose(2, 0, 1).copy().max(axis=0).sum(axis=-1)
    return out


def length_order(offsets) -> np.ndarray:
    """The passages under ``offsets`` in the length walk's order: by row
    count, stored order within each count (a stable argsort)."""
    return np.argsort(np.diff(offsets), kind="stable")


def walk_rows(offsets) -> np.ndarray:
    """The row numbers under ``offsets``, passage after passage in
    ``length_order``: the oracle's table holds its rows in this order, so
    that each chunk the blocked selection scores is one contiguous slice."""
    return passage_rows(offsets, length_order(offsets))[0]


def passage_rows(offsets, passages):
    """The row numbers of these passages under ``offsets``, passage after
    passage in the order given, and each passage's offsets into them."""
    lo = offsets[passages]
    counts = offsets[passages + 1] - lo
    starts = np.concatenate(([0], np.cumsum(counts)))
    return np.repeat(lo - starts[:-1], counts) + np.arange(starts[-1]), starts


def _length_chunks(offsets):
    """The length walk over the passages under ``offsets``: each group of
    one row count L in ``length_order``, cut into chunks of at most
    ``_MAXSIM_BLOCK // L`` passages (one when L is larger). Yields each
    chunk's stored passage numbers, its first row in the walk and L. A
    passage without rows is EmptyInputError."""
    order = length_order(offsets)
    counts = np.diff(offsets)[order]
    first = lo = 0
    while first < order.size:
        n_rows = int(counts[first])
        if n_rows < 1:
            raise EmptyInputError("a passage has no rows")
        end = int(np.searchsorted(counts, n_rows, side="right"))
        per = max(1, _MAXSIM_BLOCK // n_rows)
        for start in range(first, end, per):
            items = order[start : min(start + per, end)]
            yield items, lo, n_rows
            lo += items.size * n_rows
        first = end


def maxsim_rounding_gap(n_terms: int, dim: int, dtype=np.float64) -> float:
    """Bound on how far an evaluation of one MaxSim over unit rows in
    ``dtype`` (say a blocked matmul) can differ from ``maxsim_unit``'s
    float64 one: ``4 n_terms (dim + n_terms) u``, with u the unit roundoff
    of ``dtype`` (2**-53 for float64, 2**-24 for float32).

    With g(m) = m u / (1 - m u), a dot product of two rows of width ``dim``,
    summed in ``dtype`` in any order with or without fused multiply-adds, is
    within g(dim) |q| |p| of the real product of its operands (Higham,
    Accuracy and Stability of Numerical Algorithms, section 3.1). A maximum
    adds no rounding and moves by at most the largest error of its
    arguments. The sum of ``n_terms`` maxima, each at most 1 + g(dim) in
    magnitude, adds at most g(n_terms - 1) n_terms (1 + g(dim)). So a float64
    evaluation is within about n_terms (dim + n_terms) u of the real MaxSim,
    and two of them are within 2 n_terms (dim + n_terms) u of each other. The
    bound returned is twice that: rows from ``normalize_rows`` have norms of
    1 +- (dim / 2 + 2) u rather than 1, and g(m) exceeds m u, both by far
    less than the factor 2 allows.

    For float32, the operands are float64 unit rows rounded to float32, each
    element within a relative u of its float64 value (or within 2**-150 of
    it, when it rounds to a subnormal, a term far below the factor 2's room),
    so each product of two elements is within 2u + u**2 of the float64
    operands' product, and a cosine within (2u + u**2) |q| |p| before it is
    summed. Summing in float32 adds g(dim) |q~| |p~|, with |q~| <= (1 + u) |q|.
    Each cosine is therefore within (dim + 2) u, about, of the float64 rows'
    real cosine, and the MaxSim within n_terms (dim + 2) u, plus the sum's
    rounding: at most g(n_terms - 1) n_terms (1 + g(dim)) when the maxima are
    summed in float32, far less in float64. The float64 evaluation it is
    compared against adds n_terms (dim + n_terms) 2**-53, about 2**-29 of
    the float32 terms. Together they stay below 2 n_terms (dim + n_terms) u,
    half of the bound returned. ``tests/test_scoring.py::TestFloat32Cosines``
    checks the per-cosine step at search shapes against an exact sum.
    """
    u = float(np.finfo(dtype).eps) / 2.0
    return 4.0 * n_terms * (dim + n_terms) * u


def maxsim_top_k(q_unit: np.ndarray, table: np.ndarray, rows, offsets, k: int | None, exact_rows):
    """The k best passages by ``maxsim_unit`` (all when k is None), best
    first with ties to the lower passage index, and their scores. A k that
    ``rank`` rejects is rejected before any passage is scored.

    Passage i's unit rows, as the selection reads them, are
    ``table[rows[offsets[i]:offsets[i + 1]]]``: ``rows`` holds positions in
    ``table``, as re-rank gathers from its list-ordered table, and every
    passage has at least one. With ``rows`` None the table holds the rows
    grouped in the length walk's order (``walk_rows``), as the oracle's
    ``UnitCorpus`` holds them, not by ``offsets``. ``table`` is a float32
    copy of float64 unit rows (or those rows themselves) and serves only the
    selection below: ``exact_rows(passages)`` gives those passages' float64
    unit rows, passage after passage, each in its order in ``rows``; it is
    asked for at most 16 blocks of rows at a time, so no float64 copy of a
    large table is made. Every score reported comes from ``maxsim_exact``
    over those rows, so the result is bit-identical to ranking
    ``maxsim_unit`` of every passage, for any k. Re-rank and the
    ``UnitCorpus`` oracle both rank this way.

    When k is below the passage count, whole passages are first scored in
    blocks of equal-length passages, about ``_MAXSIM_BLOCK`` rows each
    (``_blocked_maxsim``), and each blocked score is kept by stored passage
    number, whatever the walk's order. These blocked scores only choose
    which passages to score exactly. Let gap be ``maxsim_rounding_gap`` for
    the table's dtype, the most a blocked score can differ from the
    passage's ``maxsim_unit`` score, and t the k-th best blocked score. At
    least k passages score t or more blocked, so at least k score t - gap or
    more exactly, and the k-th best exact score is at least t - gap. Every
    passage that scores that much exactly therefore has a blocked score of
    at least t - 2 gap. Only those passages are scored
    again with ``maxsim_exact`` and ranked by ``rank``: they hold the exact
    top k and every exact tie at the cut, in ascending stored passage order,
    so a tie goes to the lower passage however the walk ordered them. A
    non-finite blocked score sends every passage to ``maxsim_exact``.
    """
    check_count(k, "cutoff k", none_means_all=True)
    n = len(offsets) - 1
    survivors = np.arange(n)
    if k is not None and k < n:
        blocked = _blocked_maxsim(q_unit, table, rows, offsets)
        if np.isfinite(blocked).all():
            cut = np.partition(blocked, n - k)[n - k]
            survivors = np.flatnonzero(blocked >= cut - 2.0 * maxsim_rounding_gap(*q_unit.shape, table.dtype))
    starts = np.concatenate(([0], np.cumsum(offsets[survivors + 1] - offsets[survivors])))
    exact = np.empty(survivors.size)
    for first, last in _passage_blocks(starts, 16 * _MAXSIM_BLOCK):  # the survivors' float64 rows
        part = exact_rows(survivors[first:last])
        exact[first:last] = maxsim_exact(q_unit, part, starts[first : last + 1] - starts[first])
    order = rank(exact, k)
    return survivors[order], exact[order]


def _passage_blocks(offsets, limit: int):
    """Consecutive (first, last) passage ranges under ``offsets``, each of
    whole passages holding at most ``limit`` rows (a longer passage is a
    range of its own)."""
    n, first = len(offsets) - 1, 0
    while first < n:
        last = max(first + 1, int(np.searchsorted(offsets, offsets[first] + limit, side="right")) - 1)
        yield first, last
        first = last


def _blocked_maxsim(q_unit: np.ndarray, table: np.ndarray, rows, offsets) -> np.ndarray:
    """Approximate MaxSim per passage, by stored passage number, in one
    length walk (``_length_chunks``): each chunk of passages of L rows is
    one block of at most ``max(_MAXSIM_BLOCK, L)`` rows, a contiguous slice
    of ``table`` when ``rows`` is None (the table then holds the rows in the
    walk's order), else a gather through ``rows``, put in walk order once.
    Each block is one (rows x terms) product ``block @ q.T`` in the table's
    dtype (the query rounded to it), reshaped to (passages, L, terms), then
    per-term maxima over the L rows and a float64 sum along each passage's
    term row. The summation order is free: the rounding gap covers any."""
    out = np.empty(len(offsets) - 1)
    q = q_unit.astype(table.dtype, copy=False)
    walk = None if rows is None else rows[walk_rows(offsets)]
    for items, lo, n_rows in _length_chunks(offsets):
        hi = lo + items.size * n_rows
        block = table[lo:hi] if walk is None else table[walk[lo:hi]]
        sims = (block @ q.T).reshape(items.size, n_rows, -1)  # passages x rows x terms
        out[items] = sims.max(axis=1).sum(axis=1, dtype=np.float64)
    return out


def rank(scores, k: int | None = None) -> np.ndarray:
    """Indices of the k best (all when k is None) along the last axis, best
    first; ties keep input order, so ids listed ascending tie to the lower.
    Any other k, one below 1 or not an integer, is InvalidConfigError
    (``check_count``).

    The result is always the first k of a stable descending argsort. When
    k < n, ``np.partition`` finds the k-th best value, and only the entries
    at or above it are sorted: every other entry ranks after all of them.
    A cut that leaves fewer than k entries (NaN scores) or, in a matrix,
    unequal counts per row falls back to sorting everything.
    """
    check_count(k, "cutoff k", none_means_all=True)
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
