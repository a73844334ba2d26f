"""Layered run configuration: defaults, properties files, user overrides.

Resolution order is the defaults shown at every stage, then dataset
properties, then stage defaults, then model defaults, then the user file;
later layers override earlier ones key by key (dicts merge recursively,
scalars and lists are replaced whole).  The merged mapping is validated into
a :class:`RunConfig`.

:data:`KEYS` declares each config key once, with its kind and default, and
:data:`MODELS` each model once per (task, stage).  A re-ranker's params are
its signature's keyword defaults.  A stage's default ``metrics`` are the
metrics its report sections show (:func:`~fairrank.metrics.stage_metrics`),
and validation rejects any other.  Validation checks every key against its
entry, treats undeclared params, and params of models the task does not
register, like unknown keys and casts each param to its default's type.
"""

from __future__ import annotations

import inspect
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

import yaml

from .core import MODES
from .diverse_rerank import DiversifyContext, pm2, xquad
from .errors import ConfigError, UnknownKeyError
from .fair_rerank import cpfair, fairrec, min_regularizer, pmmf, topk, welf
from .ingest import DEFAULT_COLUMN_SPEC
from .metrics import SECTIONS, stage_metrics
from .trainer import TrainConfig, TrainHooks, train

TASKS = ("recommendation", "search")
STAGES = ("process", "pre-processing", "in-processing", "post-processing", "evaluate")
REC, SEARCH = TASKS


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


class Shape(NamedTuple):
    """The values a key takes where no one type describes them: ``ok`` tells them apart, ``what`` names them."""

    what: str
    ok: Callable[[object], bool]


EVERY = "every stage"


@dataclass(frozen=True)
class Key:
    """A config key: ``kind`` is the type of its values (``str`` or ``bool``), a tuple of them, or a :class:`Shape`.

    ``default`` is its value where no layer sets it, or where ``shown`` is a mapping, its value at each (task,
    stage) there.  The snapshot shows the default at the ``shown`` pairs, or at every stage if ``shown`` is
    :data:`EVERY`.  A key with no default may be unset or ``null``, except where its pairs in ``required`` read it.
    """

    kind: object
    default: object = None
    shown: Mapping | tuple | str = ()
    required: tuple = ()

    def at(self, task: str, stage: str):
        """The default at (task, stage)."""
        return self.shown.get((task, stage), self.default) if isinstance(self.shown, dict) else self.default


_PATH = Shape("a path", lambda v: isinstance(v, str) and "\0" not in v)
_POSITIVE = Shape("a positive integer", lambda v: type(v) is int and v > 0)
_COUNT = Shape("a non-negative integer", lambda v: type(v) is int and v >= 0)
_NAMES = Shape("a list of names", lambda v: isinstance(v, list) and all(isinstance(name, str) for name in v))
_MODEL_NAMES = Shape("a model name or a list of them", lambda v: isinstance(v, str) or _NAMES.ok(v))
_K = Shape("a positive integer or a non-empty list of them",
           lambda v: _POSITIVE.ok(v) or (isinstance(v, list) and v != [] and all(map(_POSITIVE.ok, v))))
_COLUMNS = Shape(f"a mapping from some of {', '.join(DEFAULT_COLUMN_SPEC)} to column names", lambda v: (
    isinstance(v, Mapping) and set(v) <= set(DEFAULT_COLUMN_SPEC) and _NAMES.ok(list(v.values()))))
_RATIOS = Shape("a list of three positive numbers that sum to 1", lambda v: (
    isinstance(v, list) and len(v) == 3 and all(type(r) in (int, float) and r > 0 for r in v)
    and abs(sum(v) - 1.0) <= 1e-9))
_RANKED = ((REC, "post-processing"), (REC, "evaluate"))
_SEARCHED = ((SEARCH, "post-processing"), (SEARCH, "evaluate"))

KEYS: dict[str, Key] = {
    "task": Key(TASKS),
    "stage": Key(STAGES),
    "dataset": Key(str),
    "type": Key(TASKS),
    "model": Key(_MODEL_NAMES, "none", {pair: next(iter(models)) for pair, models in MODELS.items()}),
    "models": Key(_MODEL_NAMES),
    "K": Key(_K, [10], {pair: [10, 20] if pair[0] == REC else [5, 10, 20] for pair in MODELS}),
    "metrics": Key(_NAMES, [], {pair: stage_metrics(*pair) for pair in SECTIONS}),
    "params": Key(Shape("a mapping", lambda v: isinstance(v, Mapping)), {}),
    "log_name": Key(Shape("a non-empty path", lambda v: _PATH.ok(v) and v != ""), "run", EVERY),
    "seed": Key(_COUNT, 42, EVERY),
    "arrival": Key(("sorted", "shuffle"), "sorted", EVERY),
    "data_type": Key(("pair",), "pair", ((REC, "in-processing"),)),
    "fair_rank": Key(bool, True, ((REC, "in-processing"),)),
    "mode": Key(MODES, "exposure", _RANKED),
    "target_shares": Key(("uniform", "proportional"), "uniform"),
    "alpha": Key(Shape("a number in [0, 1)", lambda v: type(v) in (int, float) and 0 <= v < 1), 0.5, _SEARCHED),
    "pool_size": Key(_POSITIVE, 50, _SEARCHED),
    "scores": Key(_PATH),
    # Dataset properties; paths are relative to the data root.
    "interactions": Key(_PATH, required=((REC, "process"),)),
    "item_groups": Key(_PATH, required=((REC, "process"),)),
    "user_groups": Key(_PATH),
    "columns": Key(_COLUMNS),
    "min_interactions": Key(_COUNT, 5),
    "ratios": Key(_RATIOS, [0.8, 0.1, 0.1]),
    "run_file": Key(_PATH, required=((SEARCH, "process"), *_SEARCHED)),
    "qrels": Key(_PATH, required=((SEARCH, "process"), *_SEARCHED)),
}

BASE_DEFAULTS = {name: key.default for name, key in KEYS.items() if key.shown == EVERY}
STAGE_DEFAULTS = {
    pair: {name: key.at(*pair) for name, key in KEYS.items() if key.shown != EVERY and pair in key.shown}
    for pair in MODELS
}
_WHAT = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}


def _typed(name: str, kind, value):
    """``value`` as a value of key or param ``name`` of ``kind``, or a ConfigError; a bool is never a number.

    A param's kind is its default's type, and an int or float param is cast to it; a float
    param must be finite.
    """
    try:
        if isinstance(kind, Shape):
            if kind.ok(value):
                return value
        elif isinstance(kind, tuple):
            if value in kind:
                return value
        elif kind in (bool, str) or isinstance(value, bool):
            if type(value) is kind:
                return value
        else:
            cast = kind(value)
            if kind is not float or math.isfinite(cast):
                return cast
    except (TypeError, ValueError, OverflowError):
        pass
    what = kind.what if isinstance(kind, Shape) else _WHAT.get(kind) or f"one of {', '.join(kind)}"
    raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass
class RunConfig:
    """Validated run description consumed by the pipeline driver; ``raw`` is the merged mapping, for the snapshot."""

    task: str
    stage: str
    dataset: str
    models: list[str]
    k_values: list[int]
    metrics: list[str]
    params: dict
    log_name: str
    seed: int
    arrival: str
    fair_rank: bool
    mode: str
    target_shares: str
    alpha: float
    pool_size: int
    scores: str | None
    interactions: str | None
    item_groups: str | None
    user_groups: str | None
    columns: Mapping | None
    min_interactions: int
    ratios: tuple
    run_file: str | None
    qrels: str | None
    raw: dict = field(default_factory=dict, compare=False)

    def check_required(self) -> None:
        """A ConfigError naming the first key the stage reads that no layer set."""
        for name, key in KEYS.items():
            if (self.task, self.stage) in key.required and getattr(self, name) is None:
                raise ConfigError(f"{name} must be given for ({self.task}, {self.stage})")


def config_merge(*layers: Mapping, strict: bool = False) -> dict:
    """Merge configuration layers; later layers win key by key.

    Nested dicts merge recursively; scalars and lists are replaced whole.
    The merge is associative as long as every key keeps one shape (mapping
    vs. scalar) across layers, which the flat-with-one-nesting config format
    guarantees.  Top-level keys outside ``KEYS`` raise
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
            if key not in KEYS:
                _unknown(f"unknown configuration key {key!r}", strict)
        merged = merge_into(merged, layer)
    return merged


def _unknown(message: str, strict: bool) -> None:
    if strict:
        raise UnknownKeyError(message)
    warnings.warn(message, stacklevel=3)


def _models(config: Mapping, task: str, stage: str) -> list[str]:
    """The models ``config`` names under ``models``, else ``model``, else the stage's first model."""
    name = "models" if "models" in config else "model"
    value = _typed(name, KEYS[name].kind, config.get(name, KEYS["model"].at(task, stage)))
    return [value] if isinstance(value, str) else _distinct(name, list(value))


def _distinct(name: str, values: list) -> list:
    """``values``, or a ConfigError if key ``name`` lists one of them twice."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{name} must list distinct values, got {values!r}")
    return values


def _model_params(name: str, model: Model, given, strict: bool) -> dict:
    """``model``'s params overlaid with ``given``, cast to their defaults' types; undeclared keys are dropped."""
    if not isinstance(given, Mapping):
        raise ConfigError(f"params of model {name!r} must be a mapping")
    params = {**model.params, **model.optional}
    for key, value in given.items():
        if key not in params:
            _unknown(f"unknown parameter {key!r} for model {name!r}", strict)
            continue
        params[key] = _typed(f"parameter {key!r} of model {name!r}", type(params[key]), value)
    return params


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (yaml.YAMLError, OSError, ValueError) as exc:  # ValueError: not UTF-8, or a date such as 2024-13-01
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, (dict, type(None))):  # an empty file holds None
        raise ConfigError(f"config file {path} must contain a mapping")
    return data or {}


def validate_config(merged: Mapping, task: str, stage: str, dataset: str, strict: bool = False) -> RunConfig:
    """Check every key of a merged mapping against :data:`KEYS` and the models, metrics and params it names."""
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}")
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    registry = MODELS.get((task, stage))
    if registry is None:
        raise ConfigError(f"stage {stage!r} not available for task {task!r}")

    models = _models(merged, task, stage)
    for m in models:
        if m not in registry:
            raise ConfigError(f"model {m!r} not registered for ({task}, {stage})")

    typed = {}
    for name, key in KEYS.items():
        default = key.at(task, stage)
        value = merged.get(name, default)
        typed[name] = None if value is None and default is None else _typed(name, key.kind, value)

    offered = stage_metrics(task, stage)
    for name in typed["metrics"]:
        if name not in offered:
            raise ConfigError(f"metric {name!r} not available for ({task}, {stage})")

    given = typed["params"]
    task_models = {name for (t, _), stage_models in MODELS.items() if t == task for name in stage_models}
    for name in given:
        if name not in task_models:
            _unknown(f"parameters for model {name!r}, which task {task!r} does not register", strict)
    params = {m: _model_params(m, registry[m], given.get(m) or {}, strict) for m in models}

    k_values = [typed["K"]] if isinstance(typed["K"], int) else _distinct("K", list(typed["K"]))
    typed.update(task=task, stage=stage, dataset=dataset, models=models, metrics=list(typed["metrics"]), params=params,
                 k_values=k_values, ratios=tuple(typed["ratios"]))
    return RunConfig(**{f.name: typed[f.name] for f in fields(RunConfig) if f.name != "raw"}, raw=dict(merged))


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

    user_config = dict(user_config or {})
    models = _models(user_config, task, stage)

    registry = MODELS.get((task, stage), {})
    model_layers = []
    for m in models:
        if m in registry:
            # "none", the process stage's model, runs nothing and has no params section.
            model_layers.append({"params": {} if m == "none" else {m: dict(registry[m].params)}})
        model_props = data_root / "properties" / "models" / f"{m}.yaml"
        if model_props.exists():
            model_layers.append({"params": {m: load_config_file(model_props)}})

    stage_defaults = STAGE_DEFAULTS.get((task, stage), {})
    merged = config_merge(BASE_DEFAULTS, dataset_props, stage_defaults, *model_layers, user_config, strict=strict)
    merged["models"] = models
    return validate_config(merged, task, stage, dataset, strict=strict)