"""Config-driven pipeline runner.

Dispatches one of the pipeline stages (process, in-processing,
post-processing, evaluate) for a task and dataset, then writes a
:class:`~fairrank.report.BenchmarkReport` under ``<data_root>/log/<log_name>``.
The data root comes from ``--data-dir`` or the ``FAIRRANK_DATA_DIR``
environment variable (default ``./data``).  Every stage that reads a score
table, a run file or qrels keeps what it parses in the data root's
``cache`` directory, so a later stage or run on the same bytes skips the parse.
The in-processing stage trains each model single-threaded; on Linux, with more
than one usable CPU, the later models train ahead in forked workers while this
process trains the first ones, and every output is the same as a one-CPU run's.
"""

from __future__ import annotations

import argparse
import os
import pickle
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from . import metrics as M
from .config import KEYS, MODELS, STAGES, TASKS, RunConfig, load_config_file, resolve_config
from .core import group_utility
from .errors import ConfigError, FairrankError, IoError, UnsupportedStage
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
    DATASET_FILES,
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
from .report import REPORT_FILES, BenchmarkReport, emit_report
from .store import running
from .trainer import TrainConfig, TrainHooks, predict, save_model, train  # noqa: F401

_HOOK_PARAMS = {f.name for f in fields(TrainHooks)}
_CONFIG_FIELDS = {"smooth": "ips_smooth"}  # trainer param -> TrainConfig field, where the names differ
_INPUT_KEYS = ("run_file", "qrels", "interactions", "item_groups", "user_groups")  # config keys naming input files


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


def _refuse_overwriting_inputs(cfg: RunConfig, data_root: Path, log_dir: Path) -> None:
    """A ConfigError naming the first input file of the config that the stage would write over.

    The stage writes the report artifacts, the process stage of recommendation
    the dataset's tables, and the other search stages one re-ranked run file
    per model.  Paths are compared with symlinks and ``..`` resolved.
    """
    writes = [log_dir / name for name in REPORT_FILES.values()]
    if cfg.task == "recommendation" and cfg.stage == "process":
        writes += [data_root / "datasets" / cfg.dataset / name for name in DATASET_FILES]
    elif cfg.task == "search" and cfg.stage != "process":
        writes += [log_dir / f"rerank-{model}.run" for model in cfg.models]
    written = set(map(os.path.realpath, writes))
    for key in _INPUT_KEYS:
        path = getattr(cfg, key)
        if path is not None and os.path.realpath(data_root / path) in written:
            raise ConfigError(f"{key} {data_root / path} is also an output of the {cfg.stage} stage, which would "
                              "overwrite it")


def _layer(fn: Callable) -> Callable:
    """``fn`` as bound in this module, where perfbench/child.py rebinds each layer's name to time it."""
    return globals().get(fn.__name__, fn)


def _report(cfg: RunConfig, rows: list) -> BenchmarkReport:
    """The run's report; each of the stage's sections shows the requested metrics it holds, in ``METRICS`` order."""
    sections = [(t, [n for n in names if n in cfg.metrics]) for t, names in M.report_sections(cfg.task, cfg.stage)]
    return BenchmarkReport(cfg.task, cfg.stage, cfg.dataset, rows, sections, dict(cfg.raw))


def _measure(cfg: RunConfig, dataset, model: str, rank: Callable, params: dict, scores, shares=None):
    """Rank ``scores`` with ``rank`` at every K: a report row ``(model, K, metric values, group utility)`` per slate."""
    mode = cfg.mode
    arrival = _arrival_order(cfg, scores.user_ids)
    rows = []
    for k in cfg.k_values:
        ctx = RerankContext(scores, dataset.catalog, k, arrival_order=list(arrival), target_shares=shares, mode=mode)
        slates = rank(ctx, **params)
        guv = group_utility(slates, dataset.catalog, axis="item", mode=mode)
        result = M.Evaluation(k, slates=slates, relevant=dataset.test, utility=guv)
        rows.append((model, k, result.values(cfg.metrics), guv))
    return rows


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
    return _report(cfg, [])


def _run_rec_rerank(cfg: RunConfig, data_root: Path) -> BenchmarkReport:
    ds_dir = data_root / "datasets" / cfg.dataset
    dataset = read_dataset(ds_dir)
    scores = read_scores(data_root / cfg.scores if cfg.scores else ds_dir, cache=data_root / "cache")
    shares = proportional_shares(dataset.catalog) if cfg.target_shares == "proportional" else None
    rows = []
    for model in cfg.models:
        rank = _layer(MODELS[cfg.task, cfg.stage][model].fn)
        rows += _measure(cfg, dataset, model, rank, cfg.params[model], scores, shares)
    return _report(cfg, rows)


def _train(cfg: RunConfig, dataset, model: str) -> tuple:
    """``model`` trained on ``dataset`` as ``cfg`` sets it up: its hooks and the fitted model."""
    entry = MODELS[cfg.task, cfg.stage][model]
    params = cfg.params[model]
    hook_params = {key: value for key, value in params.items() if key in _HOOK_PARAMS}
    config = {_CONFIG_FIELDS.get(key, key): value for key, value in params.items() if key not in hook_params}
    hooks = TrainHooks(**entry.hooks, **hook_params) if cfg.fair_rank else TrainHooks()
    return hooks, _layer(entry.fn)(dataset, TrainConfig(seed=cfg.seed, **config), hooks)


def _trained(train: Callable, models: list[str]) -> Iterator:
    """``train(model)`` for each model in order, with the later models trained ahead in forked workers.

    The models are cut into one contiguous chunk per usable CPU.  The first chunk trains here, each model
    when its result is asked for; each other chunk trains at once in a forked worker, which pickles a list
    of ``(ok, result or exception)`` into a pipe, stopping at its first exception.  A worker's exception
    is raised at its model's turn, so the caller's side effects and first error come as in a one-CPU run.
    Workers not yet read when the generator closes are killed and reaped.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    chunks = max(1, min(len(models), cpus))
    bounds = [len(models) * i // chunks for i in range(chunks + 1)]
    workers = []  # (pid, read end of its pipe, its models)
    reaped = 0
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            fds = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError as exc:
                for fd in fds:
                    os.close(fd)
                raise IoError(f"cannot start a training worker: {exc}") from None
            read_fd, write_fd = fds
            if pid == 0:  # the worker: it never returns into the caller's frames
                code = 1
                try:
                    os.close(read_fd)
                    results = []
                    for model in models[lo:hi]:
                        try:
                            results.append((True, train(model)))
                        except Exception as exc:
                            results.append((False, exc))
                            break
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(results, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb"), models[lo:hi]))
        for model in models[: bounds[1]]:
            yield train(model)
        for pid, pipe, chunk in workers:
            with pipe:
                try:
                    results = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # cut short: the exit status tells why
                    results = None
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code != 0 or results is None:
                raise IoError(f"the training worker for {', '.join(chunk)} exited with status {code} "
                              "without a whole result")
            for ok, value in results:
                if not ok:
                    raise value
                yield value
    finally:
        if workers[reaped:]:
            import signal  # only a failed run gets here, so others do not pay for the import

            for pid, pipe, _ in workers[reaped:]:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_rec_inproc(cfg: RunConfig, data_root: Path, log_dir: Path) -> BenchmarkReport:
    ds_dir = data_root / "datasets" / cfg.dataset
    dataset = read_dataset(ds_dir)
    rows = []
    trained = _trained(lambda model: _train(cfg, dataset, model), cfg.models)
    try:
        for model, (hooks, fitted) in zip(cfg.models, trained):
            save_model(fitted, log_dir / f"model-{model}", hooks=hooks)
            scores = predict(fitted, dataset.catalog.users, exclude=dataset.train)
            write_scores(scores, log_dir / f"scores-{model}")
            rows += _measure(cfg, dataset, model, topk, {}, scores)
    finally:
        trained.close()
    return _report(cfg, rows)


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
            rows.append((model, k, result.values(cfg.metrics), None))
    return _report(cfg, rows)


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
        _refuse_overwriting_inputs(cfg, data_root, log_dir)
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
