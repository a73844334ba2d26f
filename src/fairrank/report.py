"""Benchmark report assembly and deterministic on-disk emission.

The stable artifacts (record stream, text tables, allocation table, config
snapshot) are pure functions of the report content: fixed field order and
fixed 4-decimal formatting make re-emission byte-identical.  Wall-clock
timing goes to a separate file excluded from that contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import yaml

from .core import GroupUtilityVector
from .errors import InvariantViolation
from .ingest import writing
from .metrics import METRICS
from .store import replace_file


def fmt4(value: float) -> str:
    """Fixed 4-decimal formatting used in every table."""
    return f"{value:.4f}"


@dataclass
class BenchmarkReport:
    """One benchmark run: a row per (model, K), the sections its table shows, and its config snapshot.

    A row is ``(model, K, {metric: value}, group utility or None)``.  A recommendation row's group
    utility gives its lines of ``allocations.tsv``; a search row has none.
    """

    task: str
    stage: str
    dataset: str
    rows: list[tuple[str, int, dict[str, float], GroupUtilityVector | None]]
    sections: list[tuple[str, list[str]]]
    config_snapshot: dict
    wall_clock: float = 0.0

    def __post_init__(self) -> None:
        requested = {m for _, names in self.sections for m in names}
        for model, k, values, _ in self.rows:
            for m in requested:
                if m not in values:
                    raise InvariantViolation(f"row ({model}, {k}) is missing metric {m!r}")
        if "seed" not in self.config_snapshot:
            raise InvariantViolation("config snapshot must include the seed")


def _records_lines(report: BenchmarkReport) -> list[str]:
    metric_names = sorted({m for _, names in report.sections for m in names})
    meta = {
        "record": "meta",
        "task": report.task,
        "stage": report.stage,
        "dataset": report.dataset,
        "seed": report.config_snapshot.get("seed"),
        "directions": {m: METRICS[m].direction for m in metric_names},
    }
    lines = [json.dumps(meta, sort_keys=True)]
    for model, k, values, _ in report.rows:
        row = {
            "record": "row",
            "model": model,
            "k": k,
            "metrics": {f"{name}@{k}": float(fmt4(value)) for name, value in values.items()},
        }
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def _table_lines(report: BenchmarkReport) -> list[str]:
    lines: list[str] = []
    for title, names in report.sections:
        if not names:
            continue
        lines.append(f"## {title}")
        header = ["Model", "K"] + [METRICS[m].label for m in names]
        body = []
        for model, k, values, _ in report.rows:
            body.append([model, str(k)] + [fmt4(values[m]) for m in names])
        widths = [max(len(row[c]) for row in [header] + body) for c in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        lines.append("")
    return lines


def _allocation_lines(report: BenchmarkReport) -> list[str]:
    lines = ["model\tk\taxis\tmode\tgroup\tutility"]
    for model, k, _, guv in report.rows:
        for group, value in zip(guv.group_ids, guv.values.tolist()) if guv is not None else ():
            lines.append(f"{model}\t{k}\t{guv.axis}\t{guv.mode}\t{group}\t{fmt4(value)}")
    return lines


def emit_report(report: BenchmarkReport, directory: str | Path) -> dict[str, Path]:
    """Write the report artifacts; returns the emitted paths by artifact name.

    Each artifact is written through :func:`~fairrank.store.replace_file`, so
    a run killed mid-write leaves no truncated artifact.
    """
    artifacts = {
        "records": ("records.jsonl", "\n".join(_records_lines(report)) + "\n"),
        "table": ("table.txt", "\n".join(_table_lines(report)) + "\n"),
        "allocations": ("allocations.tsv", "\n".join(_allocation_lines(report)) + "\n"),
        "config": ("config.yaml", yaml.safe_dump(report.config_snapshot, sort_keys=True)),
        "timing": ("timing.txt", f"wall_clock_seconds: {report.wall_clock:.3f}\n"),
    }
    paths = {}
    with writing(directory, "report") as directory:
        for name, (filename, text) in artifacts.items():
            paths[name] = directory / filename
            replace_file(paths[name], text)
    return paths
