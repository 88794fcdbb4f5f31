"""Modular multilingual late-interaction retrieval at desk scale.

The pieces: term-level sequence preparation and MaxSim scoring
(:mod:`modir.scoring`), a toy adapter-routed encoder with the contrastive
training objective and staged freezing (:mod:`modir.encoder`), a residual-
quantized inverted-file index with two-stage search (:mod:`modir.index`),
retrieval metrics and oracles (:mod:`modir.evaluation`), and a batch CLI
(:mod:`modir.cli`).
"""

from .config import RunConfig
from .encoder import (
    Batch,
    ModularEncoderParams,
    TrainingTriple,
    add_language,
    encode,
    finetune_step,
    inbatch_loss,
    init_params,
    load_checkpoint,
    mlm_step,
    pairwise_loss,
    save_checkpoint,
    total_loss,
)
from .evaluation import (
    HardwareProfile,
    brute_force_search,
    estimate_energy_emissions,
    mrr_at_k,
    recall_at_k,
)
from .index import (
    CompressedIndex,
    ResidualCodec,
    SearchParams,
    approximate_candidates,
    build_index,
    exact_rerank,
    fit_codec,
    load_index,
    save_index,
    search,
    select_centroids,
)
from .scoring import (
    PreparedSequence,
    maxsim_score,
    prepare_passage,
    prepare_query,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "CompressedIndex",
    "HardwareProfile",
    "ModularEncoderParams",
    "PreparedSequence",
    "ResidualCodec",
    "RunConfig",
    "SearchParams",
    "TrainingTriple",
    "add_language",
    "approximate_candidates",
    "brute_force_search",
    "build_index",
    "encode",
    "estimate_energy_emissions",
    "exact_rerank",
    "finetune_step",
    "fit_codec",
    "inbatch_loss",
    "init_params",
    "load_checkpoint",
    "load_index",
    "maxsim_score",
    "mlm_step",
    "mrr_at_k",
    "pairwise_loss",
    "prepare_passage",
    "prepare_query",
    "recall_at_k",
    "save_checkpoint",
    "save_index",
    "search",
    "select_centroids",
    "total_loss",
]
