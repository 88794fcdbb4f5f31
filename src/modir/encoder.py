"""Toy modular encoder: shared layers plus per-language adapter bottlenecks.

One parameter set encodes both queries and passages (siamese use). Each of
the L layers applies a position-mixing linear map (per-token transform plus
a transform of the sequence mean, standing in for attention), a tanh, the
language-routed adapter (down-project, tanh, up-project), and a residual
add closed by a parameter-free per-position normalization (zero mean, unit
RMS). The adapter sits in series, so every contextual update flows through
the language-specific bottleneck, and the normalization keeps the residual
stream from growing a shared direction during masked-token training. A
final bias-free projection maps the d-wide states to the d_out-wide term
embeddings used for scoring.

Training walks four stages. ``pretrain``: masked-token prediction updates
the embedding table, the shared layers, and the sample language's adapters.
``finetune``: the contrastive retrieval objective updates only the shared
layers and the output projection. ``zeroshot``: inference only. ``extend``:
masked-token training of a post-hoc language updates only that language's
adapters. A step computes the gradients of the parts its stage trains and
no others (``_TRAINS``): pretrain every part but ``w_out``; finetune the
shared layers and ``w_out``, with no adapter gradient, no scatter into the
embedding table and no input gradient out of layer 0; extend the adapters
alone, with no core gradient at all. Every step of a model adds its
gradients into one workspace of the full layout, zero-filling only the
slices its stage trains. ``total_loss_and_grads`` and
``mlm_loss_and_grads`` compute every part, for the gradient checks.

The encoder passes take one sequence or a stack of equal-length sequences
of one language. The contrastive loss runs them once per (language, token
count) bucket of its batch, and ``encode_batch`` once per bucket of a
corpus; every sequence gets the bits it gets on its own (see ``_forward``).

Checkpoint layout (all integers little-endian, floats little-endian f64)::

    magic   8 bytes  b"MODENC\\x00\\x01" (trailing byte = format version)
    u32 x 5          vocab, d, d_out, n_layers, bottleneck
    u8               stage (0 pretrain, 1 finetune, 2 zeroshot, 3 extend)
    u32              language count
    per language     u16 name length, UTF-8 name, u8 post-hoc flag (0 or 1)
    f64 blocks, declaration order:
      embedding table            vocab x d
      per shared layer           w_self d x d, w_ctx d x d, bias d
      output projection          d x d_out
      per language, per layer    w_down d x b, b_down b, w_up b x d, b_up d

In memory the parameters are the same floats in the same order, held in
flat float64 buffers, one per module: ``core`` holds the embedding table,
the shared layers and the output projection, and ``flat_adapters[lang]``
holds one language's adapter stack. Every named block is a reshaped view of
its buffer. The parameter section of a checkpoint is the bytes of ``core``
followed by those of each language's buffer, in registration order. Each
stage's update is one or two contiguous slices: pretrain trains the core up
to ``w_out`` and the sample language's buffer, finetune the core after the
embedding table, extend the new language's buffer alone.
"""

import math
import struct
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .data import ByteReader, atomic_write, check_seed, short_text_bytes
from .errors import (
    FormatError,
    InvalidConfigError,
    NonFiniteError,
    StageError,
    UnknownLanguageError,
)
from .scoring import MASK_ID, NUM_SPECIAL, PreparedSequence, normalize_rows

STAGES = ("pretrain", "finetune", "zeroshot", "extend")

_MAGIC = b"MODENC\x00\x01"


@dataclass(frozen=True)
class _Trains:
    """The parts a backward pass computes gradients for; it skips the rest."""

    embedding: bool  # the table: the tied head's gradient and the input scatter
    shared: bool  # the shared layers, and w_out in the contrastive loss
    adapters: bool


_EVERY = _Trains(embedding=True, shared=True, adapters=True)
_TRAINS = {
    "pretrain": _EVERY,
    "finetune": _Trains(embedding=False, shared=True, adapters=False),
    "extend": _Trains(embedding=False, shared=False, adapters=True),
}


@dataclass
class SharedLayer:
    w_self: np.ndarray  # (d, d)
    w_ctx: np.ndarray  # (d, d)
    bias: np.ndarray  # (d,)


@dataclass
class AdapterBlock:
    w_down: np.ndarray  # (d, b)
    b_down: np.ndarray  # (b,)
    w_up: np.ndarray  # (b, d)
    b_up: np.ndarray  # (d,)


def _layer_shapes(d, n_layers) -> list[tuple]:
    """Each shared layer's w_self, w_ctx, bias: a contiguous run of the core."""
    return [(d, d), (d, d), (d,)] * n_layers


def _core_shapes(vocab, d, d_out, n_layers) -> list[tuple]:
    """The core buffer's blocks in order: embedding, each shared layer's w_self, w_ctx, bias, then w_out."""
    return [(vocab, d)] + _layer_shapes(d, n_layers) + [(d, d_out)]


def _adapter_shapes(d, bottleneck, n_layers) -> list[tuple]:
    """One language's buffer's blocks in order: each layer's w_down, b_down, w_up, b_up."""
    return [(d, bottleneck), (bottleneck,), (bottleneck, d), (d,)] * n_layers


def _floats(shapes) -> int:
    return sum(math.prod(shape) for shape in shapes)


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of ``flat``'s last axis, one per shape, each
    reshaped to its leading axes plus that shape. Splitting a contiguous last
    axis always gives a view, so a write to a block is a write to ``flat``."""
    bounds = list(accumulate((math.prod(shape) for shape in shapes), initial=0))
    lead = flat.shape[:-1]
    return [flat[..., lo:hi].reshape(lead + shape) for lo, hi, shape in zip(bounds, bounds[1:], shapes)]


def _shared_layers(blocks) -> list[SharedLayer]:
    return [SharedLayer(*blocks[i : i + 3]) for i in range(0, len(blocks), 3)]


def _adapter_blocks(blocks) -> list[AdapterBlock]:
    return [AdapterBlock(*blocks[i : i + 4]) for i in range(0, len(blocks), 4)]


@dataclass
class ModularEncoderParams:
    """All learnable state plus the stage flag; one instance per model.

    The numbers live in flat float64 buffers in checkpoint order: ``core``
    and one ``flat_adapters[lang]`` per language. Every named block
    (``embedding``, ``shared_layers[i].w_self``, ``w_out``,
    ``adapters[lang][i].w_down``, ...) is a reshaped view of its buffer, so
    a write to either is a write to both. A gradient is the same structure
    filled with zeros (``zeros``).
    """

    vocab_size: int
    d: int
    d_out: int
    n_layers: int
    bottleneck: int
    core: np.ndarray
    flat_adapters: dict[str, np.ndarray]  # registration order preserved
    stage: str = "pretrain"
    post_hoc: set[str] = field(default_factory=set)
    # the training steps' gradient workspace (_step_accumulator); never handed out
    _grads: "ModularEncoderParams | None" = field(default=None, init=False, repr=False, compare=False)
    # the contrastive loss's per-sequence gradient rows (_zeroed_rows)
    _rows: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.embedding, *layers, self.w_out = _views(self.core, _core_shapes(self.vocab_size, self.d, self.d_out, self.n_layers))
        self.shared_layers = _shared_layers(layers)
        self.adapters = {lang: self._adapter_views(flat) for lang, flat in self.flat_adapters.items()}

    def _adapter_views(self, flat: np.ndarray) -> list[AdapterBlock]:
        return _adapter_blocks(_views(flat, _adapter_shapes(self.d, self.bottleneck, self.n_layers)))

    def add_adapters(self, lang: str, flat: np.ndarray):
        """Register ``lang``'s adapter buffer, and a zero one in the step
        workspace if there is one; no other buffer moves."""
        self.flat_adapters[lang] = flat
        self.adapters[lang] = self._adapter_views(flat)
        if self._grads is not None:
            self._grads.add_adapters(lang, np.zeros_like(flat))

    def zeros(self, langs) -> "ModularEncoderParams":
        """A gradient accumulator: this layout filled with zeros, holding only
        ``langs``' adapters."""
        return ModularEncoderParams(
            self.vocab_size, self.d, self.d_out, self.n_layers, self.bottleneck,
            core=np.zeros_like(self.core),
            flat_adapters={lang: np.zeros_like(self.flat_adapters[lang]) for lang in langs},
        )

    def _core_trained(self) -> slice:
        """The part of ``core`` that a step of this stage updates: pretrain the
        embedding table and the shared layers, finetune the shared layers and
        ``w_out``, extend none of it."""
        if self.stage == "pretrain":
            return slice(self.core.size - self.w_out.size)
        if self.stage == "finetune":
            return slice(self.embedding.size, None)
        return slice(0)

    def _step_accumulator(self, lang: str | None = None) -> "ModularEncoderParams":
        """The gradient workspace of every training step: the full layout,
        allocated at the first step. Each step zero-fills what its stage trains
        (``_TRAINS``), the core's ``_core_trained`` slice and ``lang``'s
        adapters if they train, and writes nothing else."""
        if self._grads is None:
            self._grads = self.zeros(self.languages())
        self._grads.core[self._core_trained()].fill(0.0)
        if _TRAINS[self.stage].adapters:
            self._grads.flat_adapters[lang].fill(0.0)
        return self._grads

    def _zeroed_rows(self, rows: int, width: int) -> np.ndarray:
        """A zero-filled (rows, width) work array whose memory is reused from
        call to call: allocating a fresh 0.8 MB one at every contrastive step
        made a short-passages finetune step (batch 8) about 1 ms, a quarter,
        slower on a 2-core host."""
        if self._rows is None or self._rows.size < rows * width:
            self._rows = np.zeros(rows * width)
        out = self._rows[: rows * width].reshape(rows, width)
        out.fill(0.0)
        return out

    def languages(self) -> list[str]:
        return list(self.flat_adapters)

    def adapter_stack(self, lang: str) -> list[AdapterBlock]:
        try:
            return self.adapters[lang]
        except KeyError:
            raise UnknownLanguageError(f"language {lang!r} has no registered adapters") from None

    def set_stage(self, stage: str):
        """Move to another learning stage; extend is entered via add_language."""
        if stage not in STAGES:
            raise StageError(f"unknown stage {stage!r}")
        allowed = {
            "pretrain": {"finetune", "zeroshot"},
            "finetune": {"zeroshot"},
            "extend": {"zeroshot", "finetune"},
            "zeroshot": {"finetune"},
        }
        if stage != self.stage and stage not in allowed[self.stage]:
            raise StageError(f"cannot move from stage {self.stage!r} to {stage!r}")
        self.stage = stage


def _uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=size)


def init_params(
    languages,
    *,
    vocab: int = 1024,
    d: int = 32,
    d_out: int = 128,
    n_layers: int = 2,
    bottleneck: int = 8,
    seed: int = 0,
) -> ModularEncoderParams:
    """Seeded uniform(-0.05, 0.05) initialization: the core, then each language's buffer.

    A language name that the checkpoint cannot hold (``data.short_text_bytes``)
    is InvalidConfigError, before any training."""
    languages = list(languages)
    if not languages:
        raise InvalidConfigError("at least one language must be registered")
    if len(set(languages)) != len(languages):
        raise InvalidConfigError("duplicate language ids")
    for lang in languages:
        short_text_bytes(lang, "language name")
    if min(d, d_out, n_layers, bottleneck) < 1:
        raise InvalidConfigError("all encoder dimensions must be >= 1")
    if vocab <= NUM_SPECIAL:  # the reserved ids, [M] among them, are rows of the table
        raise InvalidConfigError(f"vocab must exceed {NUM_SPECIAL}, got {vocab}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    core = _uniform(rng, _floats(_core_shapes(vocab, d, d_out, n_layers)))
    adapter_floats = _floats(_adapter_shapes(d, bottleneck, n_layers))
    flat_adapters = {lang: _uniform(rng, adapter_floats) for lang in languages}
    return ModularEncoderParams(vocab, d, d_out, n_layers, bottleneck, core=core, flat_adapters=flat_adapters)


def add_language(params: ModularEncoderParams, new_lang: str, init_seed) -> ModularEncoderParams:
    """Register fresh adapters for a post-hoc language; nothing else changes.

    Enters the extend stage: subsequent masked-token steps may train only
    post-hoc languages' adapters. A name that the checkpoint cannot hold
    (``data.short_text_bytes``) is InvalidConfigError.
    """
    if new_lang in params.adapters:
        raise UnknownLanguageError(f"language {new_lang!r} is already registered")
    short_text_bytes(new_lang, "language name")
    check_seed(init_seed)
    size = _floats(_adapter_shapes(params.d, params.bottleneck, params.n_layers))
    params.add_adapters(new_lang, _uniform(np.random.default_rng(init_seed), size))
    params.post_hoc.add(new_lang)
    params.stage = "extend"
    return params


# ---------------------------------------------------------------------------
# Forward / backward


def _token_array(seq, vocab: int) -> np.ndarray:
    ids = np.asarray(seq.token_ids if isinstance(seq, PreparedSequence) else seq, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise InvalidConfigError("a sequence must contain at least one token id")
    if ids.min() < 0 or ids.max() >= vocab:
        raise InvalidConfigError(f"token id out of vocabulary range [0, {vocab})")
    return ids


_NORM_EPS = 1e-6


def _mean(x: np.ndarray, axis: int, keepdims: bool = False):
    """``x.mean(axis, keepdims=keepdims)`` bit for bit: numpy's mean is this
    sum divided by the count. Multiplying by ``1 / n`` would change bits."""
    return np.add.reduce(x, axis=axis, keepdims=keepdims) / x.shape[axis]


def _norm_rows_forward(x: np.ndarray):
    """Parameter-free per-position normalization: zero mean, unit RMS per row."""
    centered = x - _mean(x, -1, keepdims=True)
    scale = np.sqrt(_mean(centered * centered, -1, keepdims=True) + _NORM_EPS)
    return centered / scale, scale


def _norm_rows_backward(d_out: np.ndarray, normed: np.ndarray, scale: np.ndarray):
    row_mean = _mean(d_out, -1, keepdims=True)
    proj = _mean(d_out * normed, -1, keepdims=True)
    return (d_out - row_mean - normed * proj) / scale


# _forward and _backward_state take one sequence, ids of shape (L,), or a
# stack of B sequences of one language and length, ids (B, L). A stacked item
# gets the bits of its sequence run alone: numpy's matmul makes one BLAS call
# per item, of the same shape and strides (gemm, or gemv for a one-row
# operand), and every sum runs along the item's own axis (-2 over positions,
# -1 over features). Concatenating the items' rows into one 2-d product
# would not keep the bits (tests/test_encoder.py, TestStackedProductsKeepBits).


def _forward(ids: np.ndarray, lang: str, params: ModularEncoderParams):
    """Run all layers; cache per-layer inputs and activations for backprop."""
    stacks = params.adapter_stack(lang)
    x = params.embedding[ids]
    layer_cache = []
    for layer, ad in zip(params.shared_layers, stacks):
        mean = _mean(x, -2, keepdims=True)
        act = np.tanh(x @ layer.w_self + mean @ layer.w_ctx + layer.bias)
        hid = np.tanh(act @ ad.w_down + ad.b_down)
        up = hid @ ad.w_up + ad.b_up
        normed, scale = _norm_rows_forward(x + up)
        layer_cache.append((x, act, hid, normed, scale))
        x = normed
    return x, layer_cache


def _backward_state(ids, layer_cache, d_state, lang, params, grads, trains: _Trains):
    """Backpropagate a gradient on the final pre-projection state.

    Adds the weight gradients of the parts in ``trains`` into ``grads``,
    whose blocks have the leading axes of ``ids``: a step accumulator for one
    sequence, one row per item for a stack (``_stack_grads``). Returns the
    gradient on the input embeddings when the table trains, else None; the
    caller scatters it. Nothing is computed for a part that does not train.
    """
    stacks = params.adapter_stack(lang)
    dx = d_state
    k = ids.shape[-1]
    for li in reversed(range(params.n_layers)):
        x_in, act, hid, normed, scale = layer_cache[li]
        ad = stacks[li]
        # x_out = norm(x_in + adapter(act)), adapter = up . tanh . down
        dx = _norm_rows_backward(dx, normed, scale)
        d_hid = (dx @ ad.w_up.T) * (1.0 - hid * hid)
        if trains.adapters:
            g_ad = grads.adapters[lang][li]
            g_ad.w_up += hid.swapaxes(-1, -2) @ dx
            g_ad.b_up += dx.sum(axis=-2)
            g_ad.w_down += act.swapaxes(-1, -2) @ d_hid
            g_ad.b_down += d_hid.sum(axis=-2)
        to_input = li > 0 or trains.embedding
        if not (to_input or trains.shared):
            break
        d_pre = (d_hid @ ad.w_down.T) * (1.0 - act * act)
        col = d_pre.sum(axis=-2, keepdims=True)
        if trains.shared:
            g = grads.shared_layers[li]
            g.w_self += x_in.swapaxes(-1, -2) @ d_pre
            g.w_ctx += _mean(x_in, -2, keepdims=True).swapaxes(-1, -2) * col  # outer product
            g.bias += col[..., 0, :]
        if to_input:
            layer = params.shared_layers[li]
            dx = dx + d_pre @ layer.w_self.T + (col @ layer.w_ctx.T) / k
    return dx if trains.embedding else None


def encode(seq: PreparedSequence, params: ModularEncoderParams) -> np.ndarray:
    """Per-position d_out embeddings, routed through seq.language's adapters."""
    ids = _token_array(seq, params.vocab_size)
    state, _ = _forward(ids, seq.language, params)
    return state @ params.w_out


def _buckets(seqs, params: ModularEncoderParams):
    """Each sequence's checked token array, and the sequence indices grouped
    by (language, token count), buckets in first-seen order. The sequences are
    checked in order, tokens and then the language's adapters, so the first
    bad sequence raises what ``encode`` would."""
    ids_list, buckets = [], {}
    for k, seq in enumerate(seqs):
        ids_list.append(_token_array(seq, params.vocab_size))
        params.adapter_stack(seq.language)
        buckets.setdefault((seq.language, ids_list[k].size), []).append(k)
    return ids_list, buckets


_ENCODE_ROWS = 2048  # token rows per stacked call of encode_batch


def encode_batch(seqs, params: ModularEncoderParams) -> list[np.ndarray]:
    """``encode`` of each sequence, in order and bit for bit. The encoder runs
    once per (language, token count) bucket, on the stacked ids of up to
    ``_ENCODE_ROWS`` token rows at a time. The sequences are checked in order
    first (``_buckets``), so the first bad one raises what ``encode`` would."""
    ids_list, buckets = _buckets(seqs, params)
    out = [None] * len(ids_list)
    for (lang, length), members in buckets.items():
        per_call = max(1, _ENCODE_ROWS // length)
        for lo in range(0, len(members), per_call):
            chunk = members[lo : lo + per_call]
            state, _ = _forward(np.stack([ids_list[k] for k in chunk]), lang, params)
            for k, matrix in zip(chunk, state @ params.w_out):
                out[k] = matrix
    return out


# ---------------------------------------------------------------------------
# Contrastive objective


@dataclass(frozen=True)
class TrainingTriple:
    """Query with one relevant and one hard-negative passage, same language."""

    query: PreparedSequence
    positive: PreparedSequence
    hard_negative: PreparedSequence

    def __post_init__(self):
        langs = {self.query.language, self.positive.language, self.hard_negative.language}
        if len(langs) != 1:
            raise InvalidConfigError(f"triple mixes languages {sorted(langs)}")

    @property
    def language(self) -> str:
        return self.query.language


@dataclass(frozen=True)
class Batch:
    triples: tuple[TrainingTriple, ...]

    def __post_init__(self):
        if len(self.triples) < 1:
            raise InvalidConfigError("a batch needs at least one triple")

    def __len__(self) -> int:
        return len(self.triples)


def _batch_sequences(batch: Batch) -> list[PreparedSequence]:
    """Every query in batch order, then each triple's positive and hard negative."""
    return [t.query for t in batch.triples] + [s for t in batch.triples for s in (t.positive, t.hard_negative)]


def _check_finite_scores(*scores):
    for s in scores:
        if not np.all(np.isfinite(s)):
            raise NonFiniteError("similarity scores must be finite")


def pairwise_loss(s_pos: float, s_neg: float) -> float:
    """Softmax cross-entropy of the positive against one negative, overflow-safe."""
    _check_finite_scores(s_pos, s_neg)
    return float(np.logaddexp(0.0, s_neg - s_pos))


def inbatch_loss(s_pos: float, s_neg: float, s_ib) -> float:
    """Sampled softmax cross-entropy of the positive against negative + in-batch scores."""
    s_ib = np.asarray(s_ib, dtype=np.float64)
    _check_finite_scores(s_pos, s_neg, s_ib)
    scores = np.concatenate(([s_pos, s_neg], s_ib))
    peak = scores.max()
    return float(peak + np.log(np.exp(scores - peak).sum()) - s_pos)


def total_loss_and_grads(batch: Batch, params: ModularEncoderParams):
    """Mean per-triple pairwise + in-batch loss and gradients for every block.

    Scores are MaxSim over the encoded sequences, taken for the whole batch at
    once. The 3n states are stacked, projected and normalized in one call
    each. One matmul scores the real rows of the 2n passages (pos_0, neg_0,
    pos_1, ...) against every query row; each passage's maxima come from one
    ``np.maximum.reduceat`` over its rows, and the first row at the maximum
    wins. Each query's cosines are summed along a contiguous row, the order
    of ``scoring.maxsim_unit``, so a score equals ``maxsim_score`` of the two
    encodings whenever the matmul gives the same cosine bits. The sums form
    an (n x 2n) score matrix: columns 2i and 2i+1 are query i's positive and
    hard negative, the rest its in-batch negatives, so gradient flows into
    the other triples' encodings as well. The backward pass writes each score
    gradient into a (passage rows x query rows) weight matrix at the chosen
    row, carries it to both sides with two matmuls, then through the row
    normalization once; zero-norm rows score 0 and get zero gradient.

    The encoder runs once per (language, token count) bucket of the batch,
    and the loss and every gradient keep the bits of running the sequences
    one at a time (``_contrastive_loss``). Returns a fresh accumulator, which
    holds the batch's languages' adapters; an unregistered batch language is
    UnknownLanguageError before any sequence is checked.
    """
    langs = sorted({t.language for t in batch.triples})
    for lang in langs:
        params.adapter_stack(lang)  # fail early on an unknown language
    return _contrastive_loss(batch, params, _EVERY, params.zeros(langs))


@dataclass
class _StackGrads:
    """Gradient blocks with a leading item axis, one row per stacked sequence,
    into which ``_backward_state`` adds as into a step accumulator."""

    shared_layers: list[SharedLayer]
    adapters: dict[str, list[AdapterBlock]]


def _stack_grads(params: ModularEncoderParams, lang: str, rows: np.ndarray, trains: _Trains) -> _StackGrads:
    """Views of one stack's gradient rows: the shared layers' blocks, if they
    train, then ``lang``'s adapter blocks, if they train."""
    layer_shapes = _layer_shapes(params.d, params.n_layers) if trains.shared else []
    adapter_shapes = _adapter_shapes(params.d, params.bottleneck, params.n_layers) if trains.adapters else []
    blocks = _views(rows, layer_shapes + adapter_shapes)
    adapters = {lang: _adapter_blocks(blocks[len(layer_shapes) :])} if trains.adapters else {}
    return _StackGrads(_shared_layers(blocks[: len(layer_shapes)]), adapters)


def _contrastive_loss(batch: Batch, params: ModularEncoderParams, trains: _Trains, grads):
    """``total_loss_and_grads``' loss and gradient for the parts in ``trains``,
    added into ``grads``, an accumulator that holds the batch's languages'
    adapters if adapters train.
    Each bucket's states land at their sequences' offsets of one (rows, d)
    array; the embedding table's gradient is one ``np.add.at`` over the
    batch's ids in sequence order, as the sequences one at a time add it."""
    seqs = _batch_sequences(batch)
    ids_list, buckets = _buckets(seqs, params)
    lens = np.array([ids.size for ids in ids_list])
    starts = np.concatenate(([0], np.cumsum(lens)))
    all_ids = np.concatenate(ids_list)
    states = np.empty((starts[-1], params.d))
    stacks = []  # per bucket: language, members, their state rows, stacked ids, layer cache
    for (lang, length), members in buckets.items():
        rows = (starts[members][:, None] + np.arange(length)).ravel()
        ids = all_ids[rows].reshape(len(members), length)
        state, cache = _forward(ids, lang, params)
        states[rows] = state.reshape(rows.size, params.d)
        stacks.append((lang, members, rows, ids, cache))
    embs = states @ params.w_out
    units = normalize_rows(embs)

    n = len(batch)
    q, p = units[: starts[n]], units[starts[n] :]
    p_starts = starts[n:-1] - starts[n]
    sim = p @ q.T  # (passage rows, query rows)
    cos = np.maximum.reduceat(sim, p_starts)  # (2n, query rows)
    # a NaN cosine equals no maximum and leaves the sentinel len(p), but then
    # its score is NaN and the loss raises NonFiniteError before it is read
    at_max = np.where(sim == np.repeat(cos, lens[n:], axis=0), np.arange(len(p))[:, None], len(p))
    best = np.minimum.reduceat(at_max, p_starts)
    scores = np.stack([cos[:, lo:hi].sum(axis=1) for lo, hi in zip(starts[:n], starts[1 : n + 1])])

    cols = np.arange(n)
    pos, neg = scores[cols, 2 * cols], scores[cols, 2 * cols + 1]
    total = 0.0
    for i in range(n):
        total += pairwise_loss(pos[i], neg[i]) + inbatch_loss(pos[i], neg[i], np.delete(scores[i], [2 * i, 2 * i + 1]))
    # d(pair)/ds = (sigma(s_neg - s_pos)) on neg, negated on pos;
    # d(ib)/ds_j = softmax_j - 1{j = pos}.
    inv_n = 1.0 / n
    sig = 1.0 / (1.0 + np.exp(pos - neg))
    d_scores = np.exp(scores - scores.max(axis=1, keepdims=True))
    d_scores /= d_scores.sum(axis=1, keepdims=True)
    d_scores[cols, 2 * cols] -= 1.0 + sig
    d_scores[cols, 2 * cols + 1] += sig
    d_scores *= inv_n

    weights = np.zeros_like(sim)  # d loss / d sim: nonzero only at the chosen rows
    weights[best, np.arange(starts[n])] = np.repeat(d_scores, lens[:n], axis=0).T
    d_units = np.concatenate((weights.T @ p, weights @ q))
    # through u = e / |e|: de = (du - u (u . du)) / |e|, zero where |e| = 0
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    d_tangent = d_units - units * (units * d_units).sum(axis=1, keepdims=True)
    d_embs = np.divide(d_tangent, norms, out=np.zeros_like(units), where=norms > 0.0)

    grads.w_out += states.T @ d_embs
    d_states = d_embs @ params.w_out.T
    # each stack adds its items' weight gradients into rows of its own; the
    # rows then join the accumulator in sequence order, one addition per
    # sequence, as the sequences run one at a time would add them
    layer_floats = _floats(_layer_shapes(params.d, params.n_layers)) if trains.shared else 0
    adapter_floats = _floats(_adapter_shapes(params.d, params.bottleneck, params.n_layers)) if trains.adapters else 0
    item_rows = params._zeroed_rows(len(seqs), layer_floats + adapter_floats)
    item_row = np.empty(len(seqs), dtype=np.int64)  # each sequence's row, in the stacks' order
    d_inputs = np.empty_like(states) if trains.embedding else None
    lo = 0
    for lang, members, rows, ids, cache in stacks:
        hi = lo + len(members)
        item_row[members] = np.arange(lo, hi)
        stack_grads = _stack_grads(params, lang, item_rows[lo:hi], trains)
        d_in = _backward_state(ids, cache, d_states[rows].reshape(*ids.shape, -1), lang, params, stack_grads, trains)
        if d_in is not None:
            d_inputs[rows] = d_in.reshape(rows.size, params.d)
        lo = hi
    if trains.shared:
        layer_grads = grads.core[params.embedding.size : params.core.size - params.w_out.size]
        for row in item_row:
            layer_grads += item_rows[row, :layer_floats]
    if trains.adapters:
        for s, row in zip(seqs, item_row):
            grads.flat_adapters[s.language] += item_rows[row, layer_floats:]
    if trains.embedding:
        np.add.at(grads.embedding, all_ids, d_inputs)
    return total * inv_n, grads


def total_loss(batch: Batch, params: ModularEncoderParams) -> float:
    loss, _ = total_loss_and_grads(batch, params)
    return loss


# ---------------------------------------------------------------------------
# Training steps


def _sgd_update(p: np.ndarray, g: np.ndarray, lr: float):
    """``p -= lr * g`` in place, with the same bits and no temporary; ``g`` is consumed."""
    np.multiply(g, lr, out=g)
    np.subtract(p, g, out=p)


def check_finetune_batch(batch: Batch, params: ModularEncoderParams):
    """The language rule of a finetune batch: its triples share one
    language (InvalidConfigError otherwise), and that language has
    registered adapters (UnknownLanguageError otherwise)."""
    langs = {t.language for t in batch.triples}
    if len(langs) != 1:
        raise InvalidConfigError(f"finetune batch mixes languages {sorted(langs)}")
    params.adapter_stack(langs.pop())


def finetune_step(batch: Batch, params: ModularEncoderParams, lr: float):
    """One SGD step on the contrastive loss, updating shared layers and the
    output projection only; adapters and the embedding table stay untouched.
    Only those parts' gradients are computed, into the model's private
    workspace (``_step_accumulator``), which is never returned. The batch
    must pass ``check_finetune_batch``."""
    if params.stage != "finetune":
        raise StageError(f"finetune_step requires stage 'finetune', found {params.stage!r}")
    check_finetune_batch(batch, params)
    loss, grads = _contrastive_loss(batch, params, _TRAINS["finetune"], params._step_accumulator())
    if lr != 0.0:
        trained = params._core_trained()
        _sgd_update(params.core[trained], grads.core[trained], lr)
    return params, loss


def _mlm_loss_into(ids: np.ndarray, lang: str, mask: np.ndarray, params: ModularEncoderParams, grads, trains) -> float:
    """The masked-token loss of checked ids, a mask with at least one
    position and a registered language; its gradient on the parts in
    ``trains`` is added to ``grads``, which must hold zeros."""
    targets = ids[mask]
    masked_ids = ids.copy()
    masked_ids[mask] = MASK_ID
    state, cache = _forward(masked_ids, lang, params)
    logits = state[mask] @ params.embedding.T  # (M, vocab), tied weights
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    m = targets.shape[0]
    loss = float(-_mean(np.log(probs[np.arange(m), targets]), 0))
    d_logits = probs
    d_logits[np.arange(m), targets] -= 1.0
    d_logits /= m
    d_state = np.zeros_like(state)
    d_state[mask] = d_logits @ params.embedding
    if trains.embedding:
        # added to zeros, not written with matmul(out=): the sum makes a -0.0
        # product +0.0, and a parameter's sign bit can depend on it
        grads.embedding += d_logits.T @ state[mask]  # head side of the tied table
    d_input = _backward_state(masked_ids, cache, d_state, lang, params, grads, trains)
    if d_input is not None:
        np.add.at(grads.embedding, masked_ids, d_input)
    return loss


def mlm_loss_and_grads(token_ids, lang: str, mask, params: ModularEncoderParams):
    """Masked-token cross-entropy with the prediction head tied to the embedding table.

    ``mask`` is a boolean array over positions; masked inputs are replaced by
    [M] and the original ids are the prediction targets. Returns (loss, grads)
    where grads covers the embedding table, shared layers, and lang's adapters;
    each call returns a fresh grads.
    """
    ids = _token_array(token_ids, params.vocab_size)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != ids.shape:
        raise InvalidConfigError("mask length must match the sequence length")
    params.adapter_stack(lang)  # fail early on an unknown language
    grads = params.zeros([lang])
    if not mask.any():
        return 0.0, grads
    return _mlm_loss_into(ids, lang, mask, params, grads, _EVERY), grads


def check_mlm_language(params: ModularEncoderParams, lang: str):
    """The language rule of a masked-token step: ``lang`` has registered
    adapters (UnknownLanguageError otherwise) and, in the extend stage, is
    a post-hoc language (StageError otherwise)."""
    params.adapter_stack(lang)
    if params.stage == "extend" and lang not in params.post_hoc:
        raise StageError(f"extend stage only trains post-hoc languages, not {lang!r}")


def mlm_step(params: ModularEncoderParams, token_ids, lang: str, mask_rate: float, lr: float, rng: np.random.Generator):
    """One masked-language-model SGD step.

    In the pretrain stage this updates the embedding table, shared layers, and
    the sample language's adapters. In the extend stage only the adapters of a
    post-hoc language may move. mask_rate=0 is a no-op with loss 0, as is a
    step whose draw masks no position. Only the stage's trained parts get a
    gradient (``_TRAINS``), in the model's private workspace
    (``_step_accumulator``), which is never returned.
    """
    if params.stage not in ("pretrain", "extend"):
        raise StageError(f"mlm_step requires stage 'pretrain' or 'extend', found {params.stage!r}")
    check_mlm_language(params, lang)
    if not 0.0 <= mask_rate <= 1.0:
        raise InvalidConfigError(f"mask_rate must lie in [0, 1], got {mask_rate}")
    ids = _token_array(token_ids, params.vocab_size)
    mask = rng.random(ids.shape[0]) < mask_rate
    if not mask.any():
        return params, 0.0
    grads = params._step_accumulator(lang)
    loss = _mlm_loss_into(ids, lang, mask, params, grads, _TRAINS[params.stage])
    if lr != 0.0:
        trained = params._core_trained()
        _sgd_update(params.core[trained], grads.core[trained], lr)
        _sgd_update(params.flat_adapters[lang], grads.flat_adapters[lang], lr)
    return params, loss


# ---------------------------------------------------------------------------
# Checkpoint serialization


def save_checkpoint(params: ModularEncoderParams, path):
    """Write the checkpoint atomically (``data.atomic_write``): a failed write
    leaves any earlier checkpoint as it was. A NaN or infinite parameter,
    which ``load_checkpoint`` would refuse, raises NonFiniteError before the
    file is opened."""
    buffers = [params.core, *params.flat_adapters.values()]
    if not all(np.isfinite(flat).all() for flat in buffers):
        raise NonFiniteError(f"not writing {path}: a parameter is NaN or infinite")
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(
            struct.pack(
                "<IIIIIB",
                params.vocab_size,
                params.d,
                params.d_out,
                params.n_layers,
                params.bottleneck,
                STAGES.index(params.stage),
            )
        )
        langs = params.languages()
        fh.write(struct.pack("<I", len(langs)))
        for lang in langs:
            raw = lang.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", 1 if lang in params.post_hoc else 0))
        for flat in buffers:
            fh.write(np.ascontiguousarray(flat, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModularEncoderParams:
    """Read a checkpoint through a bounds-checked reader: the parameter
    section must hold exactly the floats of the shapes the header names. A
    section cut short, bytes after it, a post-hoc flag other than 0 or 1,
    or a parameter that is NaN or infinite raises FormatError naming the
    file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"{path} is not an encoder checkpoint")
    reader = ByteReader(data, path, len(_MAGIC))
    vocab, d, d_out, n_layers, bottleneck, stage_idx = reader.unpack("<IIIIIB")
    if stage_idx >= len(STAGES):
        raise FormatError(f"{path} has stage byte {stage_idx}; it must be 0 to {len(STAGES) - 1}")
    (n_langs,) = reader.unpack("<I")
    langs = []
    post_hoc = set()
    for _ in range(n_langs):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        (flag,) = reader.unpack("<B")
        if flag > 1:
            raise FormatError(f"{path} has post-hoc flag {flag} for language {name!r}; it must be 0 or 1")
        langs.append(name)
        if flag:
            post_hoc.add(name)
    if min(vocab, d, d_out, n_layers, bottleneck, n_langs) < 1 or len(set(langs)) != n_langs:
        raise FormatError(f"{path} names a zero encoder dimension, no language or a language twice")
    if vocab <= NUM_SPECIAL:
        raise FormatError(f"{path} has vocab {vocab}; it must exceed {NUM_SPECIAL}")
    core_floats = _floats(_core_shapes(vocab, d, d_out, n_layers))
    adapter_floats = _floats(_adapter_shapes(d, bottleneck, n_layers))
    values = np.frombuffer(reader.take(8 * (core_floats + n_langs * adapter_floats)), dtype="<f8")
    reader.finish()
    if not np.isfinite(values).all():
        raise FormatError(f"{path} holds a non-finite parameter")
    core, *stacks = _views(values.astype(np.float64), [(core_floats,)] + [(adapter_floats,)] * n_langs)
    return ModularEncoderParams(
        vocab, d, d_out, n_layers, bottleneck,
        core=core, flat_adapters=dict(zip(langs, stacks)), stage=STAGES[stage_idx], post_hoc=post_hoc,
    )
