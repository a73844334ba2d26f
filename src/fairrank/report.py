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
from .ingest import replace_file, writing
from .metrics import METRICS, MetricReport


def fmt4(value: float) -> str:
    """Fixed 4-decimal formatting used in every table."""
    return f"{value:.4f}"


@dataclass
class BenchmarkReport:
    """All rows, allocations, and provenance of one benchmark run."""

    task: str
    stage: str
    dataset: str
    rows: list[tuple[str, int, MetricReport]]
    allocations: list[tuple[str, int, GroupUtilityVector]]
    sections: list[tuple[str, list[str]]]
    config_snapshot: dict
    wall_clock: float = 0.0

    def __post_init__(self) -> None:
        requested = {m for _, names in self.sections for m in names}
        for model, k, rep in self.rows:
            for m in requested:
                if f"{m}@{k}" not in rep.values:
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
    for model, k, rep in report.rows:
        row = {
            "record": "row",
            "model": model,
            "k": k,
            "metrics": {name: float(fmt4(value)) for name, value in sorted(rep.values.items())},
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
        for model, k, rep in report.rows:
            body.append([model, str(k)] + [fmt4(rep.values[f"{m}@{k}"]) for m in names])
        widths = [max(len(row[c]) for row in [header] + body) for c in range(len(header))]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in body:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        lines.append("")
    return lines


def _allocation_lines(report: BenchmarkReport) -> list[str]:
    lines = ["model\tk\taxis\tmode\tgroup\tutility"]
    for model, k, guv in report.allocations:
        for group, value in zip(guv.group_ids, guv.values.tolist()):
            lines.append(f"{model}\t{k}\t{guv.axis}\t{guv.mode}\t{group}\t{fmt4(value)}")
    return lines


def emit_report(report: BenchmarkReport, directory: str | Path) -> dict[str, Path]:
    """Write the report artifacts; returns the emitted paths by artifact name.

    Each artifact is written through :func:`~fairrank.ingest.replace_file`, so
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
