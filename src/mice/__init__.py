"""Mixture of contrastive experts: latent-mixture instance discrimination with
queue-approximated EM, plus baselines, clustering metrics and a synthetic-data CLI."""

__version__ = "0.1.0"

from .data import Dataset, SyntheticSpec, generate, load_dataset, save_dataset
from .model import ElboResult, EmbeddingQueue, ModelFlags
from .trainer import TrainConfig, TrainState, evaluate, fit, init_state

__all__ = [
    "__version__",
    "Dataset",
    "SyntheticSpec",
    "generate",
    "load_dataset",
    "save_dataset",
    "ElboResult",
    "EmbeddingQueue",
    "ModelFlags",
    "TrainConfig",
    "TrainState",
    "evaluate",
    "fit",
    "init_state",
]
