"""Config-driven pipeline runner.

Dispatches one of the pipeline stages (process, in-processing,
post-processing, evaluate) for a task and dataset, then writes a
:class:`~fairrank.report.BenchmarkReport` under ``<data_root>/log/<log_name>``.
The data root comes from ``--data-dir`` or the ``FAIRRANK_DATA_DIR``
environment variable (default ``./data``).
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

import numpy as np

from . import metrics as M
from .config import RunConfig, load_config_file, resolve_config
from .core import GroupUtilityVector, group_utility
from .errors import FairrankError, IoError, UnsupportedStage
from .diverse_rerank import DiversifyContext, pm2, xquad
from .fair_rerank import (
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
    RunList,
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
)
from .report import BenchmarkReport, emit_report
from .trainer import TrainConfig, TrainHooks, exclude_train_items, predict, save_model, train

RANKING_SECTION = ["ndcg", "mrr", "hr", "mmf", "gini", "entropy"]
RERANK_SECTION = ["r_ndcg", "u_loss", "mmf", "gini", "entropy", "min_max_ratio"]
DIVERSITY_SECTION = ["err_ia", "alpha_ndcg", "s_rec"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairrank", description="Fairness- and diversity-aware ranking benchmarks.")
    parser.add_argument("--task", required=True, choices=["recommendation", "search"])
    parser.add_argument(
        "--stage",
        required=True,
        choices=["process", "pre-processing", "in-processing", "post-processing", "evaluate"],
    )
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--config", "--train_config_file", dest="config", default=None)
    parser.add_argument("--data-dir", dest="data_dir", default=None)
    parser.add_argument("--strict", action="store_true", help="reject unknown config keys")
    return parser


def _data_root(arg: str | None) -> Path:
    return Path(arg or os.environ.get("FAIRRANK_DATA_DIR", "data"))


def _sections(names: list[tuple[str, list[str]]], requested: list[str]) -> list[tuple[str, list[str]]]:
    wanted = set(requested)
    return [(title, [m for m in cols if m in wanted]) for title, cols in names]


def _relevant_items(dataset) -> dict[str, set[str]]:
    rel: dict[str, set[str]] = {}
    for rec in dataset.test.records:
        if rec.label > 0:
            rel.setdefault(rec.user, set()).add(rec.item)
    return rel


def _arrival_order(cfg: RunConfig, users: list[str]) -> list[str]:
    order = sorted(users)
    if cfg.raw.get("arrival", "sorted") == "shuffle":
        rng = np.random.default_rng(cfg.seed)
        order = [order[i] for i in rng.permutation(len(order))]
    return order


def _target_shares(cfg: RunConfig, catalog) -> dict[str, float] | None:
    choice = cfg.raw.get("target_shares", "uniform")
    if choice == "uniform":
        return None
    if choice == "proportional":
        return proportional_shares(catalog)
    raise FairrankError(f"unknown target_shares choice {choice!r}")


def _rerank_model(name: str, ctx: RerankContext, params: dict):
    if name == "topk":
        return topk(ctx)
    if name == "min_regularizer":
        return min_regularizer(ctx, lam=float(params.get("lam", 1.0)))
    if name == "cpfair":
        return cpfair(ctx, lam=float(params.get("lam", 1.0)), swap_budget=int(params.get("swap_budget", 20)))
    if name == "fairrec":
        return fairrec(ctx, phi=float(params.get("phi", 0.5)))
    if name == "pmmf":
        return pmmf(ctx, lam=float(params.get("lam", 1.0)), eta=float(params.get("eta", 0.1)))
    if name == "welf":
        return welf(
            ctx,
            lam=float(params.get("lam", 1.0)),
            alpha=float(params.get("alpha", 0.5)),
            iters=int(params.get("iters", 50)),
        )
    raise FairrankError(f"no re-ranker named {name!r}")


def _hooks_for(name: str, params: dict, fair_rank: bool) -> TrainHooks:
    if not fair_rank or name == "bpr":
        return TrainHooks()
    if name == "ips":
        return TrainHooks(weight_provider="ips")
    if name == "fairdual":
        return TrainHooks(
            weight_provider="fairdual",
            dual_budget=float(params.get("dual_budget", 1.0)),
            dual_step=float(params.get("dual_step", 0.1)),
        )
    if name == "minmax_sgd":
        return TrainHooks(group_sampler="minmax", sampler_step=float(params.get("sampler_step", 1.0)))
    if name in ("focf", "reg"):
        return TrainHooks(regularizer=name, reg_weight=float(params.get("reg_weight", 1.0)))
    raise FairrankError(f"no in-processing model named {name!r}")


def _rec_metric_rows(
    cfg: RunConfig,
    model: str,
    k: int,
    slates,
    scores,
    catalog,
    relevant,
    mode: str,
) -> tuple[M.MetricReport, GroupUtilityVector]:
    guv = group_utility(slates, scores, catalog, axis="item", mode=mode)
    quality: tuple[float, float] | None = None
    if "r_ndcg" in cfg.metrics or "u_loss" in cfg.metrics:
        quality = M.rerank_quality(slates, scores, k)
    values: dict[str, float] = {}
    for name in cfg.metrics:
        key = f"{name}@{k}"
        if name == "ndcg":
            values[key] = M.ndcg_at_k(slates, relevant, k)
        elif name == "mrr":
            values[key] = M.mrr_at_k(slates, relevant, k)
        elif name == "hr":
            values[key] = M.hit_at_k(slates, relevant, k)
        elif name == "r_ndcg":
            values[key] = quality[0]
        elif name == "u_loss":
            values[key] = quality[1]
        elif name == "gini":
            values[key] = M.gini(guv)
        elif name == "entropy":
            values[key] = M.entropy(guv)
        elif name == "mmf":
            values[key] = M.mmf(guv)
        elif name == "min_max_ratio":
            values[key] = M.min_max_ratio(guv)
        else:
            raise FairrankError(f"metric {name!r} not available for recommendation stages")
    report = M.MetricReport(values=values, provenance={"model": model, "dataset": cfg.dataset, "k": k, "mode": mode})
    return report, guv


def _run_process(cfg: RunConfig, data_root: Path) -> BenchmarkReport:
    raw = cfg.raw
    if cfg.task == "search":
        run_path = data_root / raw["run_file"]
        qrels_path = data_root / raw["qrels"]
        parse_run_file(run_path, truncate=raw.get("pool_size", 50))
        parse_diversity_qrels(qrels_path)
    else:
        interactions = parse_interactions(data_root / raw["interactions"], raw.get("columns"))
        item_groups = parse_item_groups(data_root / raw["item_groups"])
        user_groups = parse_user_groups(data_root / raw["user_groups"]) if raw.get("user_groups") else None
        catalog = build_catalog(interactions, item_groups, user_groups)
        dataset = filter_and_split(
            interactions,
            min_interactions=int(raw.get("min_interactions", 5)),
            ratios=tuple(raw.get("ratios", (0.8, 0.1, 0.1))),
            catalog=catalog,
        )
        write_dataset(dataset, data_root / "datasets" / cfg.dataset)
    return BenchmarkReport(
        task=cfg.task,
        stage=cfg.stage,
        dataset=cfg.dataset,
        rows=[],
        allocations=[],
        sections=[],
        config_snapshot=dict(cfg.raw),
    )


def _run_rec_rerank(cfg: RunConfig, data_root: Path, rerank: bool) -> BenchmarkReport:
    ds_dir = data_root / "datasets" / cfg.dataset
    dataset = read_dataset(ds_dir)
    scores = read_scores(Path(cfg.raw["scores"]) if cfg.raw.get("scores") else ds_dir)
    relevant = _relevant_items(dataset)
    mode = cfg.raw.get("mode", "exposure")
    arrival = _arrival_order(cfg, scores.users())
    shares = _target_shares(cfg, dataset.catalog)

    rows = []
    allocations = []
    for model in cfg.models:
        params = cfg.params.get(model, {})
        for k in cfg.k_values:
            ctx = RerankContext(
                scores,
                dataset.catalog,
                k,
                arrival_order=list(arrival),
                target_shares=dict(shares) if shares else None,
                mode=mode,
            )
            slates = _rerank_model(model, ctx, params) if rerank else topk(ctx)
            report, guv = _rec_metric_rows(cfg, model, k, slates, scores, dataset.catalog, relevant, mode)
            rows.append((model, k, report))
            allocations.append((model, k, guv))

    section_spec = [("ranking", RANKING_SECTION), ("rerank", RERANK_SECTION)] if rerank else [("ranking", RANKING_SECTION)]
    return BenchmarkReport(
        task=cfg.task,
        stage=cfg.stage,
        dataset=cfg.dataset,
        rows=rows,
        allocations=allocations,
        sections=_sections(section_spec, cfg.metrics),
        config_snapshot=dict(cfg.raw),
    )


def _run_rec_inproc(cfg: RunConfig, data_root: Path, log_dir: Path) -> BenchmarkReport:
    ds_dir = data_root / "datasets" / cfg.dataset
    dataset = read_dataset(ds_dir)
    relevant = _relevant_items(dataset)
    mode = cfg.raw.get("mode", "exposure")
    fair_rank = bool(cfg.raw.get("fair_rank", True))

    rows = []
    allocations = []
    for model in cfg.models:
        params = cfg.params.get(model, {})
        tc = TrainConfig(
            dim=int(params.get("dim", 32)),
            epochs=int(params.get("epochs", 30)),
            lr=float(params.get("lr", 0.05)),
            l2=float(params.get("l2", 1e-4)),
            batch_size=int(params.get("batch_size", 256)),
            seed=cfg.seed,
            use_item_bias=bool(params.get("use_item_bias", False)),
            ips_smooth=float(params.get("smooth", 0.0)),
        )
        hooks = _hooks_for(model, params, fair_rank)
        fitted = train(dataset, tc, hooks)
        save_model(fitted, log_dir / f"model-{model}", hooks=hooks)
        scores = predict(fitted, dataset.catalog.users, exclude=exclude_train_items(dataset))
        write_scores(scores, ds_dir)
        write_scores(scores, log_dir / f"scores-{model}")
        arrival = _arrival_order(cfg, scores.users())
        for k in cfg.k_values:
            ctx = RerankContext(scores, dataset.catalog, k, arrival_order=list(arrival), mode=mode)
            slates = topk(ctx)
            report, guv = _rec_metric_rows(cfg, model, k, slates, scores, dataset.catalog, relevant, mode)
            rows.append((model, k, report))
            allocations.append((model, k, guv))

    return BenchmarkReport(
        task=cfg.task,
        stage=cfg.stage,
        dataset=cfg.dataset,
        rows=rows,
        allocations=allocations,
        sections=_sections([("ranking", RANKING_SECTION)], cfg.metrics),
        config_snapshot=dict(cfg.raw),
    )


def _run_search(cfg: RunConfig, data_root: Path, log_dir: Path, rerank: bool) -> BenchmarkReport:
    raw = cfg.raw
    pool_size = int(raw.get("pool_size", 50))
    alpha = float(raw.get("alpha", 0.5))
    run = parse_run_file(data_root / raw["run_file"], truncate=pool_size)
    judgments = parse_diversity_qrels(data_root / raw["qrels"])

    depth = max(cfg.k_values)
    rows = []
    for model in cfg.models:
        params = cfg.params.get(model, {})
        if not rerank or model == "original":
            reranked = {qid: run.docs(qid)[:depth] for qid in sorted(run.queries)}
        else:
            ctx = DiversifyContext(
                run=run,
                judgments=judgments,
                lam=float(params.get("lam", 0.5)),
                k=depth,
                pool_size=pool_size,
            )
            reranked = xquad(ctx) if model == "xquad" else pm2(ctx)
        scored = {
            qid: [(doc, float(len(docs) - i)) for i, doc in enumerate(docs)] for qid, docs in reranked.items()
        }
        write_run_file(scored, log_dir / f"rerank-{model}.run", tag=model)
        rerun = RunList(queries=scored)
        values: dict[str, float] = {}
        for k in cfg.k_values:
            for name in cfg.metrics:
                key = f"{name}@{k}"
                if name == "err_ia":
                    values[key] = M.err_ia(rerun, judgments, k)
                elif name == "alpha_ndcg":
                    values[key] = M.alpha_ndcg(rerun, judgments, alpha=alpha, k=k)
                elif name == "s_rec":
                    values[key] = M.s_recall(rerun, judgments, k)
                else:
                    raise FairrankError(f"metric {name!r} not available for search stages")
        for k in cfg.k_values:
            row_values = {f"{name}@{k}": values[f"{name}@{k}"] for name in cfg.metrics}
            rows.append((model, k, M.MetricReport(values=row_values, provenance={"model": model, "dataset": cfg.dataset, "k": k})))

    return BenchmarkReport(
        task=cfg.task,
        stage=cfg.stage,
        dataset=cfg.dataset,
        rows=rows,
        allocations=[],
        sections=_sections([("diversity", DIVERSITY_SECTION)], cfg.metrics),
        config_snapshot=dict(cfg.raw),
    )


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
        user_cfg = load_config_file(args.config) if args.config else {}
        if isinstance(user_cfg, dict) and user_cfg.get("log_name"):
            # Known early so that even config errors leave an error record.
            log_dir = data_root / "log" / str(user_cfg["log_name"])
        cfg = resolve_config(args.task, args.stage, args.dataset, user_cfg, data_root, strict=args.strict)
        log_dir = data_root / "log" / cfg.log_name
        log_dir.mkdir(parents=True, exist_ok=True)
        lock = log_dir / ".lock"
        try:
            lock.touch(exist_ok=False)
        except FileExistsError:
            lock = None
            raise IoError(f"log directory {log_dir} is locked by another run") from None

        if cfg.stage == "process":
            report = _run_process(cfg, data_root)
        elif cfg.stage == "in-processing":
            if cfg.task != "recommendation":
                raise UnsupportedStage("in-processing is only implemented for recommendation")
            report = _run_rec_inproc(cfg, data_root, log_dir)
        elif cfg.task == "recommendation":
            report = _run_rec_rerank(cfg, data_root, rerank=(cfg.stage == "post-processing"))
        else:
            report = _run_search(cfg, data_root, log_dir, rerank=(cfg.stage == "post-processing"))

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
            except OSError:
                pass
        return 1
    finally:
        if lock is not None and lock.exists():
            lock.unlink()


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
