"""Run the fairrank CLI in this process with a span around each layer call.

Usage (``src`` on ``PYTHONPATH``):

    python3 perfbench/child.py --out spans.json --models bpr,reg -- <fairrank CLI args>

The wrappers replace the public functions that ``fairrank.cli`` calls from
its own namespace (and the ``fairrank.metrics`` functions it reaches through
``M``), so nothing under ``src/`` changes and calls made inside a layer are
not traced.  Each span is ``[name, start, end, parent index]``.  After the CLI
returns, a memory pass re-runs the first ``read_scores`` and ``predict`` call
under ``tracemalloc``; its duration is written out so the caller can keep it
out of the traced wall time.  The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import tracemalloc

RERANKERS = ("topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf")
METRIC_SPANS = {
    "ndcg_at_k": "metrics.accuracy",
    "mrr_at_k": "metrics.accuracy",
    "hit_at_k": "metrics.accuracy",
    "rerank_quality": "metrics.rerank_quality",
    "gini": "metrics.fairness",
    "entropy": "metrics.fairness",
    "mmf": "metrics.fairness",
    "min_max_ratio": "metrics.fairness",
    "alpha_ndcg": "metrics.alpha_ndcg",
    "err_ia": "metrics.err_ia",
    "s_recall": "metrics.s_recall",
}
MEMORY_PROBES = {"read_scores": "ingest.read_scores_peak_mb", "predict": "trainer.predict_peak_mb"}


class Recorder:
    """In-memory nested spans plus per-layer counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def _wrap(rec: Recorder, module, attr: str, name_of, count=None, first_calls=None) -> None:
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if first_calls is not None and attr not in first_calls:
            first_calls[attr] = (fn, args, kwargs)
        index = rec.enter(name_of(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.leave(index)
        if count is not None:
            rec.count(count[0], count[1](args, out))
        return out

    setattr(module, attr, traced)


def score_entries(scores) -> int:
    return sum(len(scores.row(user)) for user in scores.users())


def install(rec: Recorder, cli, metrics, models: list[str], first_calls: dict) -> None:
    """Wrap every layer entry point that ``cli`` uses."""
    fixed = {
        "read_dataset": "ingest.read_dataset",
        "parse_run_file": "ingest.parse_run_file",
        "parse_diversity_qrels": "ingest.parse_diversity_qrels",
        "write_run_file": "ingest.write_run_file",
        "resolve_config": "cli.resolve_config",
        "emit_report": "cli.emit_report",
        "group_utility": "core.group_utility",
        "RerankContext": "fair_rerank.context",
        "save_model": "trainer.save_model",
    }
    for attr, name in fixed.items():
        _wrap(rec, cli, attr, lambda args, name=name: name)
    _wrap(rec, cli, "read_scores", lambda args: "ingest.read_scores",
          count=("ingest.score_entries", lambda args, out: score_entries(out)), first_calls=first_calls)
    _wrap(rec, cli, "write_scores", lambda args: "ingest.write_scores",
          count=("ingest.score_entries", lambda args, out: score_entries(args[0])))
    _wrap(rec, cli, "predict", lambda args: "trainer.predict", first_calls=first_calls)
    for attr in RERANKERS:
        _wrap(rec, cli, attr, lambda args, attr=attr: f"fair_rerank.{attr}.k{args[0].k}",
              count=("fair_rerank.slates", lambda args, out: len(out.slates)))
    for attr in ("xquad", "pm2"):
        _wrap(rec, cli, attr, lambda args, attr=attr: f"diverse_rerank.{attr}",
              count=("diverse_rerank.queries", lambda args, out: len(out)))
    # train() is not told the model name; cli trains the models in config order.
    trained = iter(models)
    _wrap(rec, cli, "train", lambda args: f"trainer.train.{next(trained)}",
          count=("trainer.samples", lambda args, out: len(args[0].train) * args[1].epochs))
    for attr, name in METRIC_SPANS.items():
        _wrap(rec, metrics, attr, lambda args, name=name: name)


def memory_pass(first_calls: dict) -> dict[str, float]:
    """Peak traced allocation (MiB) of one repeat of each probed call."""
    peaks = {}
    for attr, metric in MEMORY_PROBES.items():
        if attr not in first_calls:
            continue
        fn, args, kwargs = first_calls[attr]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peaks[metric] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans as JSON")
    parser.add_argument("--models", required=True, help="comma-separated models, in config order")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    rec = Recorder()
    index = rec.enter("cli.import")
    import fairrank.cli as cli
    import fairrank.metrics as metrics

    rec.leave(index)
    first_calls: dict = {}
    install(rec, cli, metrics, args.models.split(","), first_calls)
    index = rec.enter("cli.run")
    try:
        code = cli.main(cli_args)
    finally:
        rec.leave(index)
    started = time.perf_counter()
    peaks = memory_pass(first_calls)
    result = {
        "spans": rec.spans,
        "counts": rec.counts,
        "peaks_mb": peaks,
        "memory_pass_s": time.perf_counter() - started,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
