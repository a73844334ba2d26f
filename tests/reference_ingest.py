"""Per-record reference for the column interaction log.

``fairrank.core.InteractionLog`` holds its rows as id tables plus user,
item, label and timestamp columns, and the parser, the split, the dataset
writer, the trainer and the accuracy metrics read those columns.  These are
the record-by-record forms they replaced: one ``Interaction`` per row in a
list-based ``RecordLog`` with its per-user views, the per-line parser, the
per-user split, the per-record writer and the relevant-item dict the CLI
built for the accuracy metrics.  The tests require the column code to give
the same logs, splits, catalogs, bytes and relevance.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import yaml

from fairrank.core import Catalog, InteractionLog
from fairrank.errors import EmptyDataset, InvariantViolation, ParseError, SchemaError, UnknownEntity
from fairrank.ingest import CANONICAL_FORMAT_VERSION, DEFAULT_COLUMN_SPEC, read_table, replace_file, writing


class Interaction(NamedTuple):
    """One observed (user, item) event with a label and a timestamp."""

    user: str
    item: str
    label: float
    timestamp: int


def checked(rec: Interaction) -> Interaction:
    """``rec``, or the InvariantViolation the record constructor raised for a label outside [0, 5]."""
    if not (0.0 <= rec.label <= 5.0):
        raise InvariantViolation(f"label {rec.label} outside [0, 5]")
    return rec


def log_of(rows: Iterable[Sequence]) -> InteractionLog:
    """A column log of ``(user, item, label, timestamp)`` rows, its id tables in first-seen order."""
    rows = list(rows)
    users = list(dict.fromkeys(row[0] for row in rows))
    items = list(dict.fromkeys(row[1] for row in rows))
    user_pos, item_pos = {u: p for p, u in enumerate(users)}, {i: p for p, i in enumerate(items)}
    return InteractionLog(
        users,
        items,
        [user_pos[row[0]] for row in rows],
        [item_pos[row[1]] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
    )


def records_of(log: InteractionLog) -> list[Interaction]:
    """The rows of ``log`` as records, in order."""
    return [
        Interaction(log.user_ids[u], log.item_ids[i], label, ts)
        for u, i, label, ts in zip(log.user.tolist(), log.item.tolist(), log.label.tolist(), log.timestamp.tolist())
    ]


class RecordLog:
    """A sequence of interactions in file order, one record per row."""

    def __init__(self, records: list[Interaction]) -> None:
        self.records = list(map(checked, records))

    def users(self) -> list[str]:
        return list(dict.fromkeys(rec.user for rec in self.records))

    def items(self) -> list[str]:
        return list(dict.fromkeys(rec.item for rec in self.records))

    def per_user(self) -> dict[str, list[Interaction]]:
        out: dict[str, list[Interaction]] = {}
        for rec in self.records:
            out.setdefault(rec.user, []).append(rec)
        return out

    def per_user_chronological(self) -> dict[str, list[Interaction]]:
        return {u: sorted(recs, key=lambda r: r.timestamp) for u, recs in self.per_user().items()}

    def validate_against(self, catalog: Catalog) -> None:
        for rec in self.records:
            if rec.user not in catalog.user_pos:
                raise UnknownEntity(f"user {rec.user!r} not in catalog")
            if rec.item not in catalog.item_pos:
                raise UnknownEntity(f"item {rec.item!r} not in catalog")

    def __len__(self) -> int:
        return len(self.records)


def parse_interactions(path: str | Path, column_spec: Mapping[str, str] | None = None) -> RecordLog:
    """The per-line interaction parser: each line converts, then checks its label, before the next is read."""
    spec = dict(DEFAULT_COLUMN_SPEC)
    if column_spec:
        spec.update(column_spec)
    rows = read_table(path, "interaction")
    _, header = next(rows, (1, []))
    positions: dict[str, int] = {}
    for role in ("user", "item", "label", "timestamp"):
        name = spec[role]
        if name not in header:
            raise SchemaError(f"{role} column {name!r} not found in header of {path}")
        positions[role] = header.index(name)
    records: list[Interaction] = []
    for lineno, fields in rows:
        try:
            label = float(fields[positions["label"]])
            ts = int(fields[positions["timestamp"]])
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
        try:
            records.append(checked(Interaction(fields[positions["user"]], fields[positions["item"]], label, ts)))
        except InvariantViolation as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return RecordLog(records)


def build_catalog(
    log: RecordLog, item_groups: Mapping[str, frozenset[str]], user_groups: Mapping[str, str] | None = None
) -> Catalog:
    users = sorted(set(log.users()))
    items = sorted(item_groups)
    missing = set(log.items()) - set(items)
    if missing:
        raise UnknownEntity(f"interactions reference items without groups: {sorted(missing)[:5]}")
    groups = sorted({g for gs in item_groups.values() for g in gs})
    ug = {u: g for u, g in user_groups.items() if u in users} if user_groups is not None else None
    return Catalog(users=users, items=items, groups=groups, item_groups=dict(item_groups), user_groups=ug)


def filter_and_split(
    log: RecordLog,
    min_interactions: int = 5,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    catalog: Catalog | None = None,
) -> tuple[list[Interaction], list[Interaction], list[Interaction], Catalog]:
    """The per-user split: each retained user's records sorted stably by timestamp and cut with ``math.floor``."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise InvariantViolation("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvariantViolation("ratios must sum to 1")
    by_user = log.per_user_chronological()
    retained = {u: recs for u, recs in by_user.items() if len(recs) >= min_interactions}
    if not retained:
        raise EmptyDataset(f"no user has >= {min_interactions} interactions")
    train: list[Interaction] = []
    valid: list[Interaction] = []
    test: list[Interaction] = []
    for user in sorted(retained):
        recs = retained[user]
        n = len(recs)
        cut1 = math.floor(n * ratios[0] + 1e-9)
        cut2 = math.floor(n * (ratios[0] + ratios[1]) + 1e-9)
        train.extend(recs[:cut1])
        valid.extend(recs[cut1:cut2])
        test.extend(recs[cut2:])
    kept_items = sorted({r.item for recs in retained.values() for r in recs})
    item_groups, user_groups = {i: frozenset(["all"]) for i in kept_items}, None
    if catalog is not None:
        missing = [i for i in kept_items if i not in catalog.item_pos]
        if missing:
            raise UnknownEntity(f"log references items outside the catalog: {missing[:5]}")
        item_groups = {i: catalog.item_groups[i] for i in kept_items}
        if catalog.user_groups is not None:
            user_groups = {u: g for u, g in catalog.user_groups.items() if u in retained}
    return train, valid, test, build_catalog(RecordLog(train + valid + test), item_groups, user_groups)


def write_dataset(
    splits: Mapping[str, list[Interaction]], catalog: Catalog, split_spec: tuple, directory: str | Path
) -> None:
    """The dataset writer, one f-string per record."""
    with writing(directory, "dataset") as directory:
        manifest = {
            "format_version": CANONICAL_FORMAT_VERSION,
            "counts": {name: len(records) for name, records in splits.items()},
            "split": {"ratios": [float(r) for r in split_spec[0]], "min_interactions": split_spec[1]},
            "has_user_groups": catalog.user_groups is not None,
        }
        replace_file(directory / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=True))
        user_groups = catalog.user_groups or {}
        users = "".join(f"{user}\t{user_groups.get(user, '')}\n" for user in catalog.users)
        replace_file(directory / "users.tsv", "user_id\tgroup\n" + users)
        items = "".join(f"{item}\t{'|'.join(sorted(catalog.item_groups[item]))}\n" for item in catalog.items)
        replace_file(directory / "items.tsv", items)
        for name, records in splits.items():
            lines = (f"{rec.user}\t{rec.item}\t{rec.label!r}\t{rec.timestamp}\n" for rec in records)
            replace_file(directory / f"{name}.tsv", "user_id\titem_id\tlabel\ttimestamp\n" + "".join(lines))


def relevant_items(test: Iterable[Interaction]) -> dict[str, set[str]]:
    """Each user's items with a test record of label above 0, as the CLI built them for the accuracy metrics."""
    rel: dict[str, set[str]] = {}
    for rec in test:
        if rec.label > 0:
            rel.setdefault(rec.user, set()).add(rec.item)
    return rel
