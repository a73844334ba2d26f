"""Fairness- and diversity-aware re-ranking engine and benchmark harness."""

from .core import (
    Catalog,
    GroupUtilityVector,
    InteractionLog,
    RankingSlate,
    ScoreMatrix,
    group_utility,
)
from .fair_rerank import RerankContext, cpfair, fairrec, min_regularizer, pmmf, topk, welf
from .diverse_rerank import DiversifyContext, pm2, xquad
from .ingest import (
    IntentJudgments,
    SearchRun,
    SplitDataset,
    filter_and_split,
    parse_diversity_qrels,
    parse_interactions,
    parse_run_file,
    read_dataset,
    write_dataset,
)
from .trainer import MFModel, TrainConfig, TrainHooks, predict, train

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "GroupUtilityVector",
    "InteractionLog",
    "IntentJudgments",
    "MFModel",
    "RankingSlate",
    "RerankContext",
    "DiversifyContext",
    "ScoreMatrix",
    "SearchRun",
    "SplitDataset",
    "TrainConfig",
    "TrainHooks",
    "cpfair",
    "fairrec",
    "filter_and_split",
    "group_utility",
    "min_regularizer",
    "parse_diversity_qrels",
    "parse_interactions",
    "parse_run_file",
    "pm2",
    "pmmf",
    "predict",
    "read_dataset",
    "topk",
    "train",
    "welf",
    "write_dataset",
    "xquad",
]
