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
adapters.

Checkpoint layout (all integers little-endian, floats little-endian f64)::

    magic   8 bytes  b"MODENC\\x00\\x01" (trailing byte = format version)
    u32 x 5          vocab, d, d_out, n_layers, bottleneck
    u8               stage (0 pretrain, 1 finetune, 2 zeroshot, 3 extend)
    u32              language count
    per language     u16 name length, UTF-8 name, u8 post-hoc flag
    f64 blocks, declaration order:
      embedding table            vocab x d
      per shared layer           w_self d x d, w_ctx d x d, bias d
      output projection          d x d_out
      per language, per layer    w_down d x b, b_down b, w_up b x d, b_up d
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .data import ByteReader, atomic_write
from .errors import (
    FormatError,
    InvalidConfigError,
    NonFiniteError,
    StageError,
    UnknownLanguageError,
)
from .scoring import MASK_ID, PreparedSequence, normalize_rows

STAGES = ("pretrain", "finetune", "zeroshot", "extend")

_MAGIC = b"MODENC\x00\x01"


@dataclass
class SharedLayer:
    w_self: np.ndarray  # (d, d)
    w_ctx: np.ndarray  # (d, d)
    bias: np.ndarray  # (d,)

    def blocks(self):
        return [self.w_self, self.w_ctx, self.bias]


@dataclass
class AdapterBlock:
    w_down: np.ndarray  # (d, b)
    b_down: np.ndarray  # (b,)
    w_up: np.ndarray  # (b, d)
    b_up: np.ndarray  # (d,)

    def blocks(self):
        return [self.w_down, self.b_down, self.w_up, self.b_up]


@dataclass
class ModularEncoderParams:
    """All learnable state plus the stage flag; one instance per model."""

    embedding: np.ndarray  # (vocab, d)
    shared_layers: list[SharedLayer]
    w_out: np.ndarray  # (d, d_out)
    adapters: dict[str, list[AdapterBlock]]  # registration order preserved
    stage: str = "pretrain"
    post_hoc: set[str] = field(default_factory=set)

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]

    @property
    def d(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_out(self) -> int:
        return self.w_out.shape[1]

    @property
    def n_layers(self) -> int:
        return len(self.shared_layers)

    @property
    def bottleneck(self) -> int:
        first = next(iter(self.adapters.values()))
        return first[0].w_down.shape[1]

    def languages(self) -> list[str]:
        return list(self.adapters)

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


def _uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=shape)


def _new_adapter_stack(rng, n_layers, d, bottleneck) -> list[AdapterBlock]:
    return [
        AdapterBlock(
            w_down=_uniform(rng, (d, bottleneck)),
            b_down=_uniform(rng, bottleneck),
            w_up=_uniform(rng, (bottleneck, d)),
            b_up=_uniform(rng, d),
        )
        for _ in range(n_layers)
    ]


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
    """Seeded uniform(-0.05, 0.05) initialization of every block, declaration order."""
    languages = list(languages)
    if not languages:
        raise InvalidConfigError("at least one language must be registered")
    if len(set(languages)) != len(languages):
        raise InvalidConfigError("duplicate language ids")
    if min(vocab, d, d_out, n_layers, bottleneck) < 1:
        raise InvalidConfigError("all encoder dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    embedding = _uniform(rng, (vocab, d))
    shared = [
        SharedLayer(w_self=_uniform(rng, (d, d)), w_ctx=_uniform(rng, (d, d)), bias=_uniform(rng, d))
        for _ in range(n_layers)
    ]
    w_out = _uniform(rng, (d, d_out))
    adapters = {lang: _new_adapter_stack(rng, n_layers, d, bottleneck) for lang in languages}
    return ModularEncoderParams(embedding=embedding, shared_layers=shared, w_out=w_out, adapters=adapters)


def add_language(params: ModularEncoderParams, new_lang: str, init_seed) -> ModularEncoderParams:
    """Register fresh adapters for a post-hoc language; nothing else changes.

    Enters the extend stage: subsequent masked-token steps may train only
    post-hoc languages' adapters.
    """
    if new_lang in params.adapters:
        raise UnknownLanguageError(f"language {new_lang!r} is already registered")
    rng = np.random.default_rng(init_seed)
    params.adapters[new_lang] = _new_adapter_stack(rng, params.n_layers, params.d, params.bottleneck)
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


def _norm_rows_forward(x: np.ndarray):
    """Parameter-free per-position normalization: zero mean, unit RMS per row."""
    centered = x - x.mean(axis=1, keepdims=True)
    scale = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + _NORM_EPS)
    return centered / scale, scale


def _norm_rows_backward(d_out: np.ndarray, normed: np.ndarray, scale: np.ndarray):
    row_mean = d_out.mean(axis=1, keepdims=True)
    proj = (d_out * normed).mean(axis=1, keepdims=True)
    return (d_out - row_mean - normed * proj) / scale


def _forward(ids: np.ndarray, lang: str, params: ModularEncoderParams):
    """Run all layers; cache per-layer inputs and activations for backprop."""
    stacks = params.adapter_stack(lang)
    x = params.embedding[ids]
    layer_cache = []
    for layer, ad in zip(params.shared_layers, stacks):
        mean = x.mean(axis=0)
        act = np.tanh(x @ layer.w_self + mean @ layer.w_ctx + layer.bias)
        hid = np.tanh(act @ ad.w_down + ad.b_down)
        up = hid @ ad.w_up + ad.b_up
        normed, scale = _norm_rows_forward(x + up)
        layer_cache.append((x, act, hid, normed, scale))
        x = normed
    return x, layer_cache


class Gradients:
    """Gradient accumulator mirroring the parameter blocks."""

    def __init__(self, params: ModularEncoderParams, langs):
        self.embedding = np.zeros_like(params.embedding)
        self.shared_layers = [SharedLayer(*(np.zeros_like(b) for b in layer.blocks())) for layer in params.shared_layers]
        self.w_out = np.zeros_like(params.w_out)
        self.adapters = {
            lang: [AdapterBlock(*(np.zeros_like(b) for b in ad.blocks())) for ad in params.adapters[lang]]
            for lang in langs
        }


def _backward_state(ids, layer_cache, d_state, lang, params, grads: Gradients):
    """Backpropagate a gradient on the final pre-projection state into grads."""
    stacks = params.adapter_stack(lang)
    g_ad = grads.adapters[lang]
    dx = d_state
    k = ids.shape[0]
    for li in reversed(range(params.n_layers)):
        x_in, act, hid, normed, scale = layer_cache[li]
        layer = params.shared_layers[li]
        ad = stacks[li]
        # x_out = norm(x_in + adapter(act)), adapter = up . tanh . down
        dx = _norm_rows_backward(dx, normed, scale)
        d_up = dx
        g_ad[li].w_up += hid.T @ d_up
        g_ad[li].b_up += d_up.sum(axis=0)
        d_hid = (d_up @ ad.w_up.T) * (1.0 - hid * hid)
        g_ad[li].w_down += act.T @ d_hid
        g_ad[li].b_down += d_hid.sum(axis=0)
        d_act = d_hid @ ad.w_down.T
        d_pre = d_act * (1.0 - act * act)
        g = grads.shared_layers[li]
        g.w_self += x_in.T @ d_pre
        col = d_pre.sum(axis=0)
        g.w_ctx += np.outer(x_in.mean(axis=0), col)
        g.bias += col
        dx = dx + d_pre @ layer.w_self.T + (col @ layer.w_ctx.T) / k
    np.add.at(grads.embedding, ids, dx)


def encode(seq: PreparedSequence, params: ModularEncoderParams) -> np.ndarray:
    """Per-position d_out embeddings, routed through seq.language's adapters."""
    ids = _token_array(seq, params.vocab_size)
    state, _ = _forward(ids, seq.language, params)
    return state @ params.w_out


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


def build_inbatch_negatives(batch: Batch, i: int) -> list[PreparedSequence]:
    """The 2(N-1) passages of all other triples: positive then hard negative, in batch order."""
    n = len(batch)
    if not 0 <= i < n:
        raise InvalidConfigError(f"triple index {i} out of range for batch of {n}")
    return [s for j, t in enumerate(batch.triples) if j != i for s in (t.positive, t.hard_negative)]


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
    once. The 3n encodings are stacked and normalized in one call. One matmul
    scores every query row against the 2n passages (pos_0, neg_0, pos_1, ...),
    padded to the longest with -inf cells; the first maximum per passage and
    query row wins. Each query's cosines are summed along a contiguous row,
    the order of ``scoring.maxsim_unit``, so a score equals ``maxsim_score``
    of the two encodings whenever the matmul gives the same cosine bits. The
    sums form an (n x 2n) score matrix: columns 2i and 2i+1 are query i's
    positive and hard negative, the rest its in-batch negatives, so gradient
    flows into the other triples' encodings as well. The backward pass
    carries the score gradients to the chosen rows through a one-hot weight
    matrix and two matmuls, then through the row normalization once;
    zero-norm rows score 0 and get zero gradient.
    """
    seqs = _batch_sequences(batch)
    langs = sorted({s.language for s in seqs})
    for lang in langs:
        params.adapter_stack(lang)  # fail early on unknown languages

    ids_list = [_token_array(s, params.vocab_size) for s in seqs]
    forwards = [_forward(ids, s.language, params) for ids, s in zip(ids_list, seqs)]
    states = np.concatenate([state for state, _ in forwards])
    embs = np.concatenate([state @ params.w_out for state, _ in forwards])
    units = normalize_rows(embs)

    n = len(batch)
    lens = np.array([len(ids) for ids in ids_list])
    starts = np.concatenate(([0], np.cumsum(lens)))
    width = lens[n:].max()
    real = np.arange(width) < lens[n:, None]  # (2n, width) cells holding a passage row
    rows = np.where(real, starts[n:-1, None] + np.arange(width), 0)  # padding reads row 0
    q, p_flat = units[: starts[n]], units[rows.ravel()]
    sim = np.where(real[..., None], (p_flat @ q.T).reshape(2 * n, width, -1), -np.inf)
    best = sim.argmax(axis=1)  # (2n, query rows)
    cos = sim.max(axis=1)
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

    onehot = np.zeros((2 * n * width, starts[n]))
    onehot[np.arange(2 * n)[:, None] * width + best, np.arange(starts[n])] = np.repeat(d_scores, lens[:n], axis=0).T
    d_units = np.concatenate((onehot.T @ p_flat, (onehot @ q)[real.ravel()]))
    # through u = e / |e|: de = (du - u (u . du)) / |e|, zero where |e| = 0
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    d_tangent = d_units - units * (units * d_units).sum(axis=1, keepdims=True)
    d_embs = np.divide(d_tangent, norms, out=np.zeros_like(units), where=norms > 0.0)

    grads = Gradients(params, langs)
    grads.w_out += states.T @ d_embs
    d_states = d_embs @ params.w_out.T
    for k, (ids, s, (_, cache)) in enumerate(zip(ids_list, seqs, forwards)):
        _backward_state(ids, cache, d_states[starts[k] : starts[k + 1]], s.language, params, grads)
    return total * inv_n, grads


def total_loss(batch: Batch, params: ModularEncoderParams) -> float:
    loss, _ = total_loss_and_grads(batch, params)
    return loss


# ---------------------------------------------------------------------------
# Training steps


def _apply_sgd(param_block: np.ndarray, grad_block: np.ndarray, lr: float):
    param_block -= lr * grad_block


def finetune_step(batch: Batch, params: ModularEncoderParams, lr: float):
    """One SGD step on the contrastive loss, updating shared layers and the
    output projection only; adapters and the embedding table stay untouched."""
    if params.stage != "finetune":
        raise StageError(f"finetune_step requires stage 'finetune', found {params.stage!r}")
    langs = {t.language for t in batch.triples}
    if len(langs) != 1:
        raise InvalidConfigError(f"finetune batch mixes languages {sorted(langs)}")
    loss, grads = total_loss_and_grads(batch, params)
    if lr != 0.0:
        for layer, g in zip(params.shared_layers, grads.shared_layers):
            for p_block, g_block in zip(layer.blocks(), g.blocks()):
                _apply_sgd(p_block, g_block, lr)
        _apply_sgd(params.w_out, grads.w_out, lr)
    return params, loss


def mlm_loss_and_grads(token_ids, lang: str, mask, params: ModularEncoderParams):
    """Masked-token cross-entropy with the prediction head tied to the embedding table.

    ``mask`` is a boolean array over positions; masked inputs are replaced by
    [M] and the original ids are the prediction targets. Returns (loss, grads)
    where grads covers the embedding table, shared layers, and lang's adapters.
    """
    ids = _token_array(token_ids, params.vocab_size)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != ids.shape:
        raise InvalidConfigError("mask length must match the sequence length")
    grads = Gradients(params, [lang])
    if not mask.any():
        return 0.0, grads
    targets = ids[mask]
    masked_ids = ids.copy()
    masked_ids[mask] = MASK_ID
    state, cache = _forward(masked_ids, lang, params)
    logits = state[mask] @ params.embedding.T  # (M, vocab), tied weights
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    m = targets.shape[0]
    loss = float(-np.mean(np.log(probs[np.arange(m), targets])))
    d_logits = probs
    d_logits[np.arange(m), targets] -= 1.0
    d_logits /= m
    d_state = np.zeros_like(state)
    d_state[mask] = d_logits @ params.embedding
    grads.embedding += d_logits.T @ state[mask]  # head side of the tied table
    _backward_state(masked_ids, cache, d_state, lang, params, grads)
    return loss, grads


def mlm_step(params: ModularEncoderParams, token_ids, lang: str, mask_rate: float, lr: float, rng: np.random.Generator):
    """One masked-language-model SGD step.

    In the pretrain stage this updates the embedding table, shared layers, and
    the sample language's adapters. In the extend stage only the adapters of a
    post-hoc language may move. mask_rate=0 is a no-op with loss 0.
    """
    if params.stage not in ("pretrain", "extend"):
        raise StageError(f"mlm_step requires stage 'pretrain' or 'extend', found {params.stage!r}")
    stacks = params.adapter_stack(lang)
    if params.stage == "extend" and lang not in params.post_hoc:
        raise StageError(f"extend stage only trains post-hoc languages, not {lang!r}")
    if not 0.0 <= mask_rate <= 1.0:
        raise InvalidConfigError(f"mask_rate must lie in [0, 1], got {mask_rate}")
    ids = _token_array(token_ids, params.vocab_size)
    mask = rng.random(ids.shape[0]) < mask_rate
    loss, grads = mlm_loss_and_grads(ids, lang, mask, params)
    if lr != 0.0 and mask.any():
        if params.stage == "pretrain":
            _apply_sgd(params.embedding, grads.embedding, lr)
            for layer, g in zip(params.shared_layers, grads.shared_layers):
                for p_block, g_block in zip(layer.blocks(), g.blocks()):
                    _apply_sgd(p_block, g_block, lr)
        for ad, g in zip(stacks, grads.adapters[lang]):
            for p_block, g_block in zip(ad.blocks(), g.blocks()):
                _apply_sgd(p_block, g_block, lr)
    return params, loss


# ---------------------------------------------------------------------------
# Checkpoint serialization


def _param_blocks(params: ModularEncoderParams):
    yield params.embedding
    for layer in params.shared_layers:
        yield from layer.blocks()
    yield params.w_out
    for lang in params.adapters:
        for ad in params.adapters[lang]:
            yield from ad.blocks()


def save_checkpoint(params: ModularEncoderParams, path):
    """Write the checkpoint atomically (``data.atomic_write``): a failed write
    leaves any earlier checkpoint as it was."""
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
        for block in _param_blocks(params):
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModularEncoderParams:
    """Read a checkpoint. The header is read through a bounds-checked reader,
    and the parameter bytes are checked once against the shapes it names
    before any block is read; a mismatch, or a parameter that is NaN or
    infinite, raises FormatError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(_MAGIC)] != _MAGIC:
        raise FormatError(f"{path} is not an encoder checkpoint")
    reader = ByteReader(data, path, len(_MAGIC))
    vocab, d, d_out, n_layers, bottleneck, stage_idx = reader.unpack("<IIIIIB")
    if stage_idx >= len(STAGES):
        raise FormatError(f"bad stage byte {stage_idx}")
    (n_langs,) = reader.unpack("<I")
    langs = []
    post_hoc = set()
    for _ in range(n_langs):
        (name_len,) = reader.unpack("<H")
        name = reader.text(name_len)
        (flag,) = reader.unpack("<B")
        langs.append(name)
        if flag:
            post_hoc.add(name)
    if min(vocab, d, d_out, n_layers, bottleneck, n_langs) < 1 or len(set(langs)) != n_langs:
        raise FormatError(f"{path} names a zero encoder dimension, no language or a language twice")
    layer_floats = 2 * d * d + d
    adapter_floats = 2 * d * bottleneck + bottleneck + d
    floats = vocab * d + n_layers * layer_floats + d * d_out + n_langs * n_layers * adapter_floats
    left = len(data) - reader.offset
    if 8 * floats != left:
        raise FormatError(f"{path} holds {left} parameter bytes, its header names {8 * floats}")
    if not np.isfinite(np.frombuffer(data, dtype="<f8", offset=reader.offset)).all():
        raise FormatError(f"{path} holds a non-finite parameter")

    def read(shape):
        return np.frombuffer(reader.take(8 * int(np.prod(shape))), dtype="<f8").reshape(shape).astype(np.float64)

    embedding = read((vocab, d))
    shared = [SharedLayer(read((d, d)), read((d, d)), read(d)) for _ in range(n_layers)]
    w_out = read((d, d_out))
    adapters = {
        lang: [AdapterBlock(read((d, bottleneck)), read(bottleneck), read((bottleneck, d)), read(d)) for _ in range(n_layers)]
        for lang in langs
    }
    return ModularEncoderParams(
        embedding=embedding,
        shared_layers=shared,
        w_out=w_out,
        adapters=adapters,
        stage=STAGES[stage_idx],
        post_hoc=post_hoc,
    )
