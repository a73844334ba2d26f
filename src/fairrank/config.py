"""Layered run configuration: defaults, properties files, user overrides.

Resolution order is dataset defaults, then stage defaults, then model
defaults, then the user file; later layers override earlier ones key by key
(dicts merge recursively, scalars and lists are replaced whole).  The merged
mapping is validated into a :class:`RunConfig`.

:data:`MODELS` declares each model once per (task, stage).  A re-ranker's
params are its signature's keyword defaults.  Validation rejects metrics
outside the stage's report sections (:data:`~fairrank.metrics.SECTIONS`),
treats undeclared params, and params of models the task does not register,
like unknown keys and casts each param to its default's type.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import yaml

from .diverse_rerank import DiversifyContext, pm2, xquad
from .errors import ConfigError, UnknownKeyError
from .fair_rerank import cpfair, fairrec, min_regularizer, pmmf, topk, welf
from .ingest import DEFAULT_COLUMN_SPEC
from .metrics import METRICS, SECTIONS
from .trainer import TrainConfig, TrainHooks, train

TASKS = ("recommendation", "search")
STAGES = ("process", "pre-processing", "in-processing", "post-processing", "evaluate")


@dataclass(frozen=True)
class Model:
    """A registered model.

    ``fn`` is what the stage calls (``None``: run nothing, or keep the
    original ranking); ``params`` are the declared params with their defaults,
    as the config snapshot shows them; ``hooks`` is an in-processing model's
    :class:`TrainHooks` slot selection; ``optional`` are params accepted with
    a default but left out of the snapshot.
    """

    fn: Callable | None = None
    params: Mapping = field(default_factory=dict)
    hooks: Mapping | None = None
    optional: Mapping = field(default_factory=dict)


def _defaults(cls, *names: str) -> dict:
    """The defaults the dataclass ``cls`` declares for its fields ``names``."""
    return {name: getattr(cls, name) for name in names}


def _reranker(fn: Callable) -> Model:
    """Params are the keyword defaults of ``fn``, less callbacks (default ``None``)."""
    sig = inspect.signature(fn).parameters.values()
    return Model(fn, {p.name: p.default for p in sig if p.default is not p.empty and p.default is not None})


def _trainer(hooks: Mapping, **params) -> Model:
    base = _defaults(TrainConfig, "dim", "epochs", "lr", "l2", "batch_size")
    return Model(train, {**base, **params}, hooks, _defaults(TrainConfig, "use_item_bias"))


MODELS: dict[tuple[str, str], dict[str, Model]] = {
    ("recommendation", "process"): {"none": Model()},
    ("recommendation", "in-processing"): {
        "bpr": _trainer({}),
        # smooth and reg_weight default to 1 here but to 0 in TrainConfig/TrainHooks.
        "ips": _trainer({"weight_provider": "ips"}, smooth=1.0),
        "fairdual": _trainer({"weight_provider": "fairdual"}, **_defaults(TrainHooks, "dual_budget", "dual_step")),
        "minmax_sgd": _trainer({"group_sampler": "minmax"}, **_defaults(TrainHooks, "sampler_step")),
        "focf": _trainer({"regularizer": "focf"}, reg_weight=1.0),
        "reg": _trainer({"regularizer": "reg"}, reg_weight=1.0),
    },
    ("recommendation", "post-processing"): {
        fn.__name__: _reranker(fn) for fn in (topk, min_regularizer, cpfair, fairrec, pmmf, welf)
    },
    ("recommendation", "evaluate"): {"topk": _reranker(topk)},
    ("search", "process"): {"none": Model()},
    ("search", "post-processing"): {fn.__name__: Model(fn, _defaults(DiversifyContext, "lam")) for fn in (xquad, pm2)},
    ("search", "evaluate"): {"original": Model()},
}

STAGE_DEFAULTS: dict[tuple[str, str], dict] = {
    ("recommendation", "process"): {"model": "none", "K": [10, 20]},
    ("recommendation", "in-processing"): {
        "model": "bpr",
        "K": [10, 20],
        "metrics": ["ndcg", "mrr", "hr", "mmf", "gini", "entropy"],
        "data_type": "pair",
        "fair_rank": True,
    },
    ("recommendation", "post-processing"): {
        "model": "topk",
        "K": [10, 20],
        "metrics": ["ndcg", "mrr", "hr", "mmf", "gini", "entropy", "r_ndcg", "u_loss", "min_max_ratio"],
        "mode": "exposure",
    },
    ("recommendation", "evaluate"): {
        "model": "topk",
        "K": [10, 20],
        "metrics": ["ndcg", "mrr", "hr", "mmf", "gini", "entropy"],
        "mode": "exposure",
    },
    ("search", "process"): {"model": "none", "K": [5, 10, 20]},
    ("search", "post-processing"): {
        "model": "xquad",
        "K": [5, 10, 20],
        "metrics": ["err_ia", "alpha_ndcg", "s_rec"],
        "alpha": 0.5,
        "pool_size": 50,
    },
    ("search", "evaluate"): {
        "model": "original",
        "K": [5, 10, 20],
        "metrics": ["err_ia", "alpha_ndcg", "s_rec"],
        "alpha": 0.5,
        "pool_size": 50,
    },
}

KNOWN_KEYS = frozenset(
    {
        "task",
        "stage",
        "dataset",
        "model",
        "models",
        "K",
        "metrics",
        "params",
        "log_name",
        "seed",
        "data_type",
        "fair_rank",
        "mode",
        "alpha",
        "pool_size",
        "arrival",
        "target_shares",
        # dataset properties
        "type",
        "interactions",
        "item_groups",
        "user_groups",
        "columns",
        "min_interactions",
        "ratios",
        "run_file",
        "qrels",
        "scores",
    }
)

BASE_DEFAULTS = {"seed": 42, "log_name": "run", "arrival": "sorted"}


@dataclass
class RunConfig:
    """Validated run description consumed by the pipeline driver."""

    task: str
    stage: str
    dataset: str
    models: list[str]
    k_values: list[int]
    metrics: list[str]
    params: dict
    log_name: str
    seed: int
    raw: dict = field(default_factory=dict, compare=False)


def config_merge(*layers: Mapping, strict: bool = False) -> dict:
    """Merge configuration layers; later layers win key by key.

    Nested dicts merge recursively; scalars and lists are replaced whole.
    The merge is associative as long as every key keeps one shape (mapping
    vs. scalar) across layers, which the flat-with-one-nesting config format
    guarantees.  Top-level keys outside ``KNOWN_KEYS`` raise
    :class:`UnknownKeyError` in strict mode and warn otherwise.
    """

    def merge_into(base: dict, overlay: Mapping) -> dict:
        out = dict(base)
        for key, value in overlay.items():
            if isinstance(value, Mapping) and isinstance(out.get(key), dict):
                out[key] = merge_into(out[key], value)
            elif isinstance(value, Mapping):
                out[key] = merge_into({}, value)
            else:
                out[key] = value
        return out

    merged: dict = {}
    for layer in layers:
        if layer is None:
            continue
        for key in layer:
            if key not in KNOWN_KEYS:
                _unknown(f"unknown configuration key {key!r}", strict)
        merged = merge_into(merged, layer)
    return merged


def _unknown(message: str, strict: bool) -> None:
    if strict:
        raise UnknownKeyError(message)
    warnings.warn(message, stacklevel=3)


def _model_params(name: str, model: Model, given, strict: bool) -> dict:
    """``model``'s params overlaid with ``given``, cast to their defaults' types; undeclared keys are dropped."""
    if not isinstance(given, Mapping):
        raise ConfigError(f"params of model {name!r} must be a mapping")
    params = {**model.params, **model.optional}
    for key, value in given.items():
        if key not in params:
            _unknown(f"unknown parameter {key!r} for model {name!r}", strict)
            continue
        kind = type(params[key])
        try:
            params[key] = kind(value)
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {key!r} of model {name!r} must be {kind.__name__}, got {value!r}") from None
    return params


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return data


def validate_config(merged: Mapping, task: str, stage: str, dataset: str, strict: bool = False) -> RunConfig:
    """Check RunConfig invariants on a merged mapping."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    registry = MODELS.get((task, stage))
    if registry is None and stage != "pre-processing":
        raise ConfigError(f"stage {stage!r} not available for task {task!r}")

    models_raw = merged.get("models", merged.get("model", "none"))
    models = [models_raw] if isinstance(models_raw, str) else list(models_raw)
    if registry is not None:
        for m in models:
            if m not in registry:
                raise ConfigError(f"model {m!r} not registered for ({task}, {stage})")

    k_values = merged.get("K", [10])
    if isinstance(k_values, int):
        k_values = [k_values]
    if not k_values or any((not isinstance(k, int)) or k < 1 for k in k_values):
        raise ConfigError("K entries must be positive integers")

    metrics = list(merged.get("metrics", []))
    sections = set(SECTIONS.get((task, stage), ()))
    offered = {name for name, metric in METRICS.items() if sections & set(metric.sections)}
    for name in metrics:
        if name not in offered:
            raise ConfigError(f"metric {name!r} not available for ({task}, {stage})")

    given = merged.get("params", {})
    if not isinstance(given, Mapping):
        raise ConfigError("params must be a mapping")
    task_models = {name for (t, _), stage_models in MODELS.items() if t == task for name in stage_models}
    for name in given:
        if name not in task_models:
            _unknown(f"parameters for model {name!r}, which task {task!r} does not register", strict)
    params = {m: _model_params(m, registry[m], given.get(m) or {}, strict) for m in models} if registry else {}

    log_name = merged.get("log_name", "")
    if not log_name:
        raise ConfigError("log_name must be non-empty")

    if merged.get("data_type", "pair") != "pair":
        raise ConfigError("only pairwise sampling (data_type: pair) is supported")

    # The process stage's dataset keys, checked here so that a bad value fails before any stage work.
    columns = merged.get("columns")
    if columns is not None and not (
        isinstance(columns, Mapping)
        and set(columns) <= set(DEFAULT_COLUMN_SPEC)
        and all(isinstance(name, str) for name in columns.values())
    ):
        raise ConfigError(f"columns must map some of {sorted(DEFAULT_COLUMN_SPEC)} to column names, got {columns!r}")
    _integer(merged, "min_interactions", 5)
    ratios = merged.get("ratios", [0.8, 0.1, 0.1])
    if not (isinstance(ratios, (list, tuple)) and len(ratios) == 3
            and all(isinstance(r, (int, float)) and not isinstance(r, bool) for r in ratios)):
        raise ConfigError(f"ratios must be a list of three numbers, got {ratios!r}")

    return RunConfig(
        task=task,
        stage=stage,
        dataset=dataset,
        models=models,
        k_values=list(k_values),
        metrics=metrics,
        params=params,
        log_name=str(log_name),
        seed=_integer(merged, "seed", 42),
        raw=dict(merged),
    )


def _integer(merged: Mapping, key: str, default: int) -> int:
    """``merged[key]`` (default ``default``) as the int the stage will use; a ConfigError if it has none."""
    value = merged.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def resolve_config(
    task: str,
    stage: str,
    dataset: str,
    user_config: Mapping | None,
    data_root: Path,
    strict: bool = False,
) -> RunConfig:
    """Layer defaults, properties files, and the user config into a RunConfig."""
    dataset_props: dict = {}
    props_path = data_root / "properties" / "dataset" / f"{dataset}.yaml"
    if props_path.exists():
        dataset_props = load_config_file(props_path)

    stage_defaults = STAGE_DEFAULTS.get((task, stage), {})
    user_config = dict(user_config or {})
    models_raw = user_config.get("models", user_config.get("model", stage_defaults.get("model", "none")))
    models = [models_raw] if isinstance(models_raw, str) else list(models_raw)

    registry = MODELS.get((task, stage), {})
    model_layers = []
    for m in models:
        if m in registry:
            # "none", the process stage's model, runs nothing and has no params section.
            model_layers.append({"params": {} if m == "none" else {m: dict(registry[m].params)}})
        model_props = data_root / "properties" / "models" / f"{m}.yaml"
        if model_props.exists():
            model_layers.append({"params": {m: load_config_file(model_props)}})

    merged = config_merge(
        BASE_DEFAULTS,
        dataset_props,
        stage_defaults,
        *model_layers,
        user_config,
        strict=strict,
    )
    merged["models"] = models
    return validate_config(merged, task, stage, dataset, strict=strict)
