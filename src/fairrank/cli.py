"""Config-driven pipeline runner.

Dispatches one of the pipeline stages (process, in-processing,
post-processing, evaluate) for a task and dataset, then writes a
:class:`~fairrank.report.BenchmarkReport` under ``<data_root>/log/<log_name>``.
The data root comes from ``--data-dir`` or the ``FAIRRANK_DATA_DIR``
environment variable (default ``./data``).  Every stage that reads a score
table, a run file or qrels keeps what it parses in the data root's
``cache`` directory, so a later stage or run on the same bytes skips the parse.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics as M
from .config import KEYS, MODELS, STAGES, TASKS, RunConfig, load_config_file, resolve_config
from .core import group_utility
from .errors import FairrankError, IoError, UnsupportedStage
from .diverse_rerank import DiversifyContext, pm2, xquad  # noqa: F401 (see _layer)
from .fair_rerank import (  # noqa: F401 (see _layer)
    RerankContext,
    cpfair,
    fairrec,
    min_regularizer,
    pmmf,
    proportional_shares,
    topk,
    welf,
)
from .ingest import (
    build_catalog,
    filter_and_split,
    parse_diversity_qrels,
    parse_interactions,
    parse_item_groups,
    parse_run_file,
    parse_user_groups,
    read_dataset,
    read_scores,
    write_dataset,
    write_run_file,
    write_scores,
    writing,
)
from .report import BenchmarkReport, emit_report
from .store import running
from .trainer import TrainConfig, TrainHooks, predict, save_model, train  # noqa: F401

_HOOK_PARAMS = {f.name for f in fields(TrainHooks)}
_CONFIG_FIELDS = {"smooth": "ips_smooth"}  # trainer param -> TrainConfig field, where the names differ


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairrank", description="Fairness- and diversity-aware ranking benchmarks.")
    parser.add_argument("--task", required=True, choices=TASKS)
    parser.add_argument("--stage", required=True, choices=STAGES)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--config", "--train_config_file", dest="config", default=None)
    parser.add_argument("--data-dir", dest="data_dir", default=None)
    parser.add_argument("--strict", action="store_true", help="reject unknown config keys")
    return parser


def _data_root(arg: str | None) -> Path:
    return Path(arg or os.environ.get("FAIRRANK_DATA_DIR", "data"))


def _arrival_order(cfg: RunConfig, users: list[str]) -> list[str]:
    order = sorted(users)
    if cfg.arrival == "shuffle":
        rng = np.random.default_rng(cfg.seed)
        order = [order[i] for i in rng.permutation(len(order))]
    return order


def _layer(fn: Callable) -> Callable:
    """``fn`` as bound in this module, where perfbench/child.py rebinds each layer's name to time it."""
    return globals().get(fn.__name__, fn)


def _report(cfg: RunConfig, rows: list, allocations: list) -> BenchmarkReport:
    """The run's report; each of the stage's sections shows the requested metrics it holds, in ``METRICS`` order."""
    titles = M.SECTIONS.get((cfg.task, cfg.stage), ())
    sections = [(t, [n for n, m in M.METRICS.items() if t in m.sections and n in cfg.metrics]) for t in titles]
    return BenchmarkReport(cfg.task, cfg.stage, cfg.dataset, rows, allocations, sections, dict(cfg.raw))


def _measure(cfg: RunConfig, dataset, model: str, rank: Callable, params: dict, scores, shares=None):
    """Rank ``scores`` with ``rank`` at every K: a ``(model, K, metric report, group utility)`` per slate."""
    mode = cfg.mode
    arrival = _arrival_order(cfg, scores.user_ids)
    measured = []
    for k in cfg.k_values:
        ctx = RerankContext(scores, dataset.catalog, k, arrival_order=list(arrival), target_shares=shares, mode=mode)
        slates = rank(ctx, **params)
        guv = group_utility(slates, dataset.catalog, axis="item", mode=mode)
        result = M.Evaluation(k, slates=slates, relevant=dataset.test, utility=guv)
        provenance = {"model": model, "dataset": cfg.dataset, "k": k, "mode": mode}
        measured.append((model, k, result.report(cfg.metrics, provenance), guv))
    return measured


def _rec_report(cfg: RunConfig, measured: list) -> BenchmarkReport:
    rows = [(model, k, report) for model, k, report, _ in measured]
    return _report(cfg, rows, [(model, k, guv) for model, k, _, guv in measured])


def _run_process(cfg: RunConfig, data_root: Path) -> BenchmarkReport:
    if cfg.task == "search":
        parse_run_file(data_root / cfg.run_file, truncate=cfg.pool_size, cache=data_root / "cache")
        parse_diversity_qrels(data_root / cfg.qrels, cache=data_root / "cache")
    else:
        interactions = parse_interactions(data_root / cfg.interactions, cfg.columns)
        item_groups = parse_item_groups(data_root / cfg.item_groups)
        user_groups = parse_user_groups(data_root / cfg.user_groups) if cfg.user_groups else None
        catalog = build_catalog(interactions, item_groups, user_groups)
        dataset = filter_and_split(
            interactions, min_interactions=cfg.min_interactions, ratios=cfg.ratios, catalog=catalog
        )
        write_dataset(dataset, data_root / "datasets" / cfg.dataset)
    return _report(cfg, [], [])


def _run_rec_rerank(cfg: RunConfig, data_root: Path) -> BenchmarkReport:
    ds_dir = data_root / "datasets" / cfg.dataset
    dataset = read_dataset(ds_dir)
    scores = read_scores(data_root / cfg.scores if cfg.scores else ds_dir, cache=data_root / "cache")
    shares = proportional_shares(dataset.catalog) if cfg.target_shares == "proportional" else None
    measured = []
    for model in cfg.models:
        rank = _layer(MODELS[cfg.task, cfg.stage][model].fn)
        measured += _measure(cfg, dataset, model, rank, cfg.params[model], scores, shares)
    return _rec_report(cfg, measured)


def _run_rec_inproc(cfg: RunConfig, data_root: Path, log_dir: Path) -> BenchmarkReport:
    ds_dir = data_root / "datasets" / cfg.dataset
    dataset = read_dataset(ds_dir)
    measured = []
    for model in cfg.models:
        entry = MODELS[cfg.task, cfg.stage][model]
        params = cfg.params[model]
        hook_params = {key: value for key, value in params.items() if key in _HOOK_PARAMS}
        config = {_CONFIG_FIELDS.get(key, key): value for key, value in params.items() if key not in hook_params}
        hooks = TrainHooks(**entry.hooks, **hook_params) if cfg.fair_rank else TrainHooks()
        fitted = _layer(entry.fn)(dataset, TrainConfig(seed=cfg.seed, **config), hooks)
        save_model(fitted, log_dir / f"model-{model}", hooks=hooks)
        scores = predict(fitted, dataset.catalog.users, exclude=dataset.train)
        write_scores(scores, log_dir / f"scores-{model}")
        measured += _measure(cfg, dataset, model, topk, {}, scores)
    return _rec_report(cfg, measured)


def _run_search(cfg: RunConfig, data_root: Path, log_dir: Path) -> BenchmarkReport:
    run = parse_run_file(data_root / cfg.run_file, truncate=cfg.pool_size, cache=data_root / "cache")
    judgments = parse_diversity_qrels(data_root / cfg.qrels, cache=data_root / "cache")

    depth = max(cfg.k_values)
    rows = []
    for model in cfg.models:
        diversify = MODELS[cfg.task, cfg.stage][model].fn
        if diversify is None:
            picks = np.arange(min(depth, run.docs.shape[1]))
        else:
            ctx = DiversifyContext(run=run, judgments=judgments, k=depth, pool_size=cfg.pool_size, **cfg.params[model])
            picks = _layer(diversify)(ctx)
        reranked = run.rerank(picks)
        write_run_file(reranked, log_dir / f"rerank-{model}.run", tag=model)
        for k in cfg.k_values:
            result = M.Evaluation(k, run=reranked, judgments=judgments, alpha=cfg.alpha)
            rows.append((model, k, result.report(cfg.metrics, {"model": model, "dataset": cfg.dataset, "k": k})))
    return _report(cfg, rows, [])


def _lock(lock: Path) -> Path:
    """Create ``lock`` exclusively, holding this process's pid.

    A lock naming a pid that is not running is replaced; any other lock, an
    empty one included, is an IoError.
    """
    try:
        pid = int(lock.read_text(encoding="ascii"))
    except (OSError, ValueError):  # no lock, or one that names no pid
        pid = 0
    if pid > 0 and not running(pid):
        lock.unlink(missing_ok=True)
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise IoError(f"log directory {lock.parent} is locked by another run") from None
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(f"{os.getpid()}\n")
    return lock


def run(argv=None) -> int:
    """Entry point: parse argv, dispatch the stage, emit the report."""
    args = build_parser().parse_args(argv)
    data_root = _data_root(args.data_dir)
    log_dir: Path | None = None
    lock: Path | None = None
    started = time.perf_counter()
    try:
        if args.stage == "pre-processing":
            raise UnsupportedStage("pre-processing models are not implemented in this build")
        log_dir = data_root / "log" / KEYS["log_name"].default  # where a config file that cannot be read is reported
        user_cfg = load_config_file(args.config) if args.config else {}
        log_name = user_cfg.get("log_name")  # known early so that even config errors leave an error record
        log_dir = data_root / "log" / log_name if KEYS["log_name"].kind.ok(log_name) else None
        cfg = resolve_config(args.task, args.stage, args.dataset, user_cfg, data_root, strict=args.strict)
        log_dir = data_root / "log" / cfg.log_name
        cfg.check_required()
        with writing(log_dir, "run lock"):
            lock = _lock(log_dir / ".lock")

        if cfg.stage == "process":
            report = _run_process(cfg, data_root)
        elif cfg.stage == "in-processing":
            report = _run_rec_inproc(cfg, data_root, log_dir)
        elif cfg.task == "recommendation":
            report = _run_rec_rerank(cfg, data_root)
        else:
            report = _run_search(cfg, data_root, log_dir)

        report.wall_clock = time.perf_counter() - started
        paths = emit_report(report, log_dir)
        print(f"report written to {paths['table']}")
        return 0
    except FairrankError as exc:
        message = f"{type(exc).__name__}: {exc}"
        print(f"error: {message}")
        if log_dir is not None:
            try:
                log_dir.mkdir(parents=True, exist_ok=True)
                (log_dir / "error.txt").write_text(message + "\n", encoding="utf-8")
            except (OSError, ValueError):  # ValueError: a log_name holding a NUL byte
                pass
        return 1
    finally:
        if lock is not None and lock.exists():
            lock.unlink()


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
