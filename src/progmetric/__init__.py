"""Progressive metric embedding learning on synthetic identity clusters.

Core pieces: order-statistic triplet losses (`losses`), identity-balanced
batch sampling (`sampler`), a GP/EI hyperparameter optimizer (`bayes_opt`),
the explore/restore/exploit training schedule (`trainer`), retrieval
metrics and PCA (`evaluation`), and a synthetic dataset generator
(`synthetic`).
"""

from .losses import (
    DegenerateBatchError,
    HyperParams,
    InvalidInputError,
    LossBreakdown,
    composite_loss,
    composite_loss_grad,
    cross_entropy_loss,
    gbh_loss,
    gbh_terms,
    pairwise_distances,
)
from .sampler import BatchSpec, PKSampler
from .bayes_opt import (
    ExplorationRecord,
    GPState,
    drop_rate_objective,
    estimate_bandwidth,
    expected_improvement,
    fit_gp,
    kernel,
    propose,
)
from .model import ModelConfig, ModelParams, OptimizerConfig, embed, forward, lr_schedule
from .trainer import PlaConfig, run_fixed, run_pla
from .evaluation import QueryGallerySplit, RetrievalMetrics, evaluate, pca_reduce
from .synthetic import LabeledDataset, SynthSpec, generate

__all__ = [
    "BatchSpec", "DegenerateBatchError", "ExplorationRecord", "GPState",
    "HyperParams", "InvalidInputError", "LabeledDataset", "LossBreakdown",
    "ModelConfig", "ModelParams", "OptimizerConfig", "PKSampler", "PlaConfig",
    "QueryGallerySplit", "RetrievalMetrics", "SynthSpec", "composite_loss",
    "composite_loss_grad", "cross_entropy_loss", "drop_rate_objective",
    "estimate_bandwidth", "embed", "evaluate", "expected_improvement", "fit_gp",
    "forward", "gbh_loss", "gbh_terms", "generate", "kernel", "lr_schedule",
    "pairwise_distances", "pca_reduce", "propose", "run_fixed", "run_pla",
]
