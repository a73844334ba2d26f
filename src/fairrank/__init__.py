"""Fairness- and diversity-aware re-ranking engine and benchmark harness.

The names below are resolved on first use (PEP 562), so importing one
submodule, as ``python -m fairrank.synth`` does, loads only what that
submodule imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {
    "core": ("Catalog", "GroupUtilityVector", "InteractionLog", "RankingSlate", "ScoreMatrix", "group_utility"),
    "fair_rerank": ("RerankContext", "cpfair", "fairrec", "min_regularizer", "pmmf", "topk", "welf"),
    "diverse_rerank": ("DiversifyContext", "pm2", "xquad"),
    "ingest": (
        "IntentJudgments",
        "SearchRun",
        "SplitDataset",
        "filter_and_split",
        "parse_diversity_qrels",
        "parse_interactions",
        "parse_run_file",
        "read_dataset",
        "write_dataset",
    ),
    "trainer": ("MFModel", "TrainConfig", "TrainHooks", "predict", "save_model", "train"),
}
_MODULE_OF = {name: module for module, names in _HOME.items() for name in names}

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
    "save_model",
    "topk",
    "train",
    "welf",
    "write_dataset",
    "xquad",
]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
