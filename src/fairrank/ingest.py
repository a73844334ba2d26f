"""Parsing of external file formats, filtering/splitting, and canonical on-disk I/O.

Formats handled here:

* interactions: header + TSV ``user_id item_id label timestamp`` (column
  names remappable through a column spec),
* item groups: TSV ``item_id<TAB>group1|group2|...`` (no header),
* diversity qrels: whitespace-separated ``qid intent_id doc_id rel``,
* run files: 6-column TREC format ``qid Q0 docid rank score tag``,
* the canonical dataset directory (versioned line-oriented tables plus a
  small manifest).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .core import Catalog, Interaction, InteractionLog, ScoreMatrix
from .errors import (
    EmptyDataset,
    FormatError,
    InvariantViolation,
    IoError,
    ParseError,
    SchemaError,
    UnknownEntity,
    UnknownQuery,
    VersionError,
)

CANONICAL_FORMAT_VERSION = 1

DEFAULT_COLUMN_SPEC = {
    "user": "user_id",
    "item": "item_id",
    "label": "label",
    "timestamp": "timestamp",
}


@dataclass
class SplitDataset:
    """Chronologically split interaction data plus the catalog it references."""

    train: InteractionLog
    valid: InteractionLog
    test: InteractionLog
    catalog: Catalog
    split_spec: tuple[tuple[float, float, float], int]

    def splits(self) -> dict[str, InteractionLog]:
        return {"train": self.train, "valid": self.valid, "test": self.test}


@dataclass
class QueryJudgments:
    """Intent-level binary judgments for one query.

    Attributes:
        intents: declared intents in ascending id order.
        priors: intent -> probability in [0, 1], keyed by exactly the
            declared intents and summing to 1.
        doc_intents: doc -> set of intents the doc is relevant to (docs with
            no positive judgment are absent).
    """

    intents: list[str]
    priors: dict[str, float]
    doc_intents: dict[str, frozenset[str]]

    def __post_init__(self) -> None:
        if not self.intents:
            raise InvariantViolation("query declares no intents")
        if sorted(self.priors) != sorted(self.intents):
            raise InvariantViolation("intent priors are not keyed by exactly the declared intents")
        for intent, prior in self.priors.items():
            if not (0.0 <= prior <= 1.0):
                raise InvariantViolation(f"prior {prior} of intent {intent!r} outside [0, 1]")
        if abs(sum(self.priors.values()) - 1.0) > 1e-9:
            raise InvariantViolation("intent priors do not sum to 1")
        declared = set(self.intents)
        for doc, its in self.doc_intents.items():
            if not its <= declared:
                raise InvariantViolation(f"doc {doc!r} judged for undeclared intents")

    def relevance(self, doc: str, intent: str) -> float:
        return 1.0 if intent in self.doc_intents.get(doc, frozenset()) else 0.0

    def judged_docs(self) -> list[str]:
        """Docs with at least one positive judgment, in ascending id order."""
        return sorted(self.doc_intents)


@dataclass
class IntentJudgments:
    """Per-query intent sets, priors, and binary doc relevance.

    ``ideal_dcg`` holds the greedy ideal alpha-DCG tables that
    ``metrics.alpha_ndcg`` computes on first use, one per alpha, and keeps
    for the lifetime of the judgments; the judgments are read-only once a
    metric has seen them.
    """

    queries: dict[str, QueryJudgments]
    duplicate_count: int = 0
    ideal_dcg: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def query(self, qid: str) -> QueryJudgments:
        try:
            return self.queries[qid]
        except KeyError:
            raise UnknownQuery(f"query {qid!r} has no intent judgments") from None


@dataclass
class RunList:
    """Per-query ranked (doc, score) candidate lists in rank order."""

    queries: dict[str, list[tuple[str, float]]]

    def docs(self, qid: str) -> list[str]:
        return [doc for doc, _ in self.queries.get(qid, [])]


def parse_interactions(path: str | Path, column_spec: Mapping[str, str] | None = None) -> InteractionLog:
    """Parse a header + TSV interaction file into an InteractionLog.

    ``column_spec`` maps the roles user/item/label/timestamp to column names
    in the file.  Record order equals file order.
    """
    spec = dict(DEFAULT_COLUMN_SPEC)
    if column_spec:
        spec.update(column_spec)
    path = Path(path)
    if not path.exists():
        raise IoError(f"interaction file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            raise SchemaError(f"empty interaction file: {path}")
        header = header_line.rstrip("\n").split("\t")
        positions: dict[str, int] = {}
        for role in ("user", "item", "label", "timestamp"):
            name = spec[role]
            if name not in header:
                raise SchemaError(f"{role} column {name!r} not found in header of {path}")
            positions[role] = header.index(name)
        records: list[Interaction] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != len(header):
                raise ParseError(f"line {lineno}: expected {len(header)} fields, got {len(fields)}")
            try:
                label = float(fields[positions["label"]])
                ts = int(fields[positions["timestamp"]])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            try:
                records.append(
                    Interaction(
                        user=fields[positions["user"]],
                        item=fields[positions["item"]],
                        label=label,
                        timestamp=ts,
                    )
                )
            except InvariantViolation as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
    return InteractionLog(records=records)


def parse_item_groups(path: str | Path) -> dict[str, frozenset[str]]:
    """Parse a TSV ``item_id<TAB>group1|group2|...`` membership file."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"item-group file not found: {path}")
    out: dict[str, frozenset[str]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'item<TAB>groups', got {len(fields)} fields")
            item, raw_groups = fields
            groups = frozenset(g for g in raw_groups.split("|") if g)
            if not groups:
                raise ParseError(f"line {lineno}: item {item!r} has no groups")
            out[item] = groups
    return out


def _user_group_fields(path: Path, lineno: int, line: str) -> tuple[str, str]:
    fields = line.split("\t")
    if len(fields) != 2:
        raise ParseError(f"{path}: line {lineno}: expected 'user<TAB>group', got {len(fields)} fields")
    return fields[0], fields[1]


def parse_user_groups(path: str | Path) -> dict[str, str]:
    """Parse a TSV ``user_id<TAB>group`` file (no header)."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"user-group file not found: {path}")
    out: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line:
            user, group = _user_group_fields(path, lineno, line)
            out[user] = group
    return out


def build_catalog(
    log: InteractionLog,
    item_groups: Mapping[str, frozenset[str]],
    user_groups: Mapping[str, str] | None = None,
) -> Catalog:
    """Assemble a catalog from an interaction log and a membership map.

    Users come from the log; items come from the membership map (which must
    cover every item in the log); groups are the union of memberships.
    """
    users = sorted(set(log.users()))
    items = sorted(item_groups)
    missing = set(log.items()) - set(items)
    if missing:
        raise UnknownEntity(f"interactions reference items without groups: {sorted(missing)[:5]}")
    groups = sorted({g for gs in item_groups.values() for g in gs})
    ug = dict(user_groups) if user_groups is not None else None
    if ug is not None:
        groups = sorted(set(groups) | set(ug.values()))
    return Catalog(
        users=users,
        items=items,
        groups=groups,
        item_groups=dict(item_groups),
        user_groups=ug,
    )


def filter_and_split(
    log: InteractionLog,
    min_interactions: int = 5,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    catalog: Catalog | None = None,
) -> SplitDataset:
    """Drop sparse users and split each user's history chronologically.

    Users with fewer than ``min_interactions`` records are removed entirely.
    Each retained user's records are stably sorted by timestamp (file order
    breaks ties) and cut at ``floor(n*r_train)`` and ``floor(n*(r_train+r_valid))``.
    The catalog is rebuilt restricted to retained users/items; ``catalog``
    supplies group membership (items default to a single shared group when
    it is omitted).
    """
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
    # The small epsilon keeps floor() at the intended integer when n*r is
    # representable only as 8.999999... in binary floating point.
    for user in sorted(retained):
        recs = retained[user]
        n = len(recs)
        cut1 = math.floor(n * ratios[0] + 1e-9)
        cut2 = math.floor(n * (ratios[0] + ratios[1]) + 1e-9)
        train.extend(recs[:cut1])
        valid.extend(recs[cut1:cut2])
        test.extend(recs[cut2:])

    kept_users = sorted(retained)
    kept_items = sorted({r.item for recs in retained.values() for r in recs})
    if catalog is not None:
        missing = [i for i in kept_items if not catalog.has_item(i)]
        if missing:
            raise UnknownEntity(f"log references items outside the catalog: {missing[:5]}")
        item_groups = {i: catalog.item_groups[i] for i in kept_items}
        user_groups = None
        if catalog.user_groups is not None:
            user_groups = {u: g for u, g in catalog.user_groups.items() if u in retained}
        groups = sorted({g for gs in item_groups.values() for g in gs} | set(user_groups.values() if user_groups else ()))
    else:
        item_groups = {i: frozenset(["all"]) for i in kept_items}
        user_groups = None
        groups = ["all"]

    new_catalog = Catalog(
        users=kept_users,
        items=kept_items,
        groups=groups,
        item_groups=item_groups,
        user_groups=user_groups,
    )
    return SplitDataset(
        train=InteractionLog(train),
        valid=InteractionLog(valid),
        test=InteractionLog(test),
        catalog=new_catalog,
        split_spec=(tuple(ratios), min_interactions),
    )


def parse_diversity_qrels(path: str | Path) -> IntentJudgments:
    """Parse ``qid intent_id doc_id rel`` judgments; priors default to uniform.

    Duplicate (qid, intent, doc) lines are resolved last-wins and counted in
    ``duplicate_count``.
    """
    path = Path(path)
    if not path.exists():
        raise IoError(f"qrels file not found: {path}")
    raw: dict[str, dict[tuple[str, str], int]] = {}
    duplicates = 0
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 4:
                raise ParseError(f"line {lineno}: expected 'qid intent doc rel', got {len(fields)} fields")
            qid, intent, doc, rel_raw = fields
            if rel_raw not in ("0", "1"):
                raise ParseError(f"line {lineno}: relevance {rel_raw!r} not in {{0, 1}}")
            per_query = raw.setdefault(qid, {})
            key = (intent, doc)
            if key in per_query:
                duplicates += 1
            per_query[key] = int(rel_raw)

    queries: dict[str, QueryJudgments] = {}
    for qid, judgments in raw.items():
        intents = sorted({intent for intent, _ in judgments})
        prior = 1.0 / len(intents)
        doc_pos: dict[str, set[str]] = {}
        for (intent, doc), rel in judgments.items():
            if rel == 1:
                doc_pos.setdefault(doc, set()).add(intent)
        queries[qid] = QueryJudgments(
            intents=intents,
            priors={i: prior for i in intents},
            doc_intents={d: frozenset(s) for d, s in doc_pos.items()},
        )
    return IntentJudgments(queries=queries, duplicate_count=duplicates)


def parse_run_file(path: str | Path, truncate: int | None = 50) -> RunList:
    """Parse a 6-column TREC run file, keeping the top ``truncate`` docs per query."""
    path = Path(path)
    if not path.exists():
        raise IoError(f"run file not found: {path}")
    queries: dict[str, list[tuple[str, float]]] = {}
    last_rank: dict[str, int] = {}
    seen_docs: dict[str, set[str]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != 6:
                raise FormatError(f"line {lineno}: expected 6 TREC columns, got {len(fields)}")
            qid, _q0, doc, rank_raw, score_raw, _tag = fields
            try:
                rank = int(rank_raw)
                score = float(score_raw)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
            if not math.isfinite(score):
                raise FormatError(f"line {lineno}: non-finite score")
            if qid in last_rank and rank <= last_rank[qid]:
                raise FormatError(f"line {lineno}: rank {rank} not strictly increasing for query {qid!r}")
            docs = seen_docs.setdefault(qid, set())
            if doc in docs:
                raise FormatError(f"line {lineno}: duplicate doc {doc!r} for query {qid!r}")
            docs.add(doc)
            last_rank[qid] = rank
            queries.setdefault(qid, []).append((doc, score))
    if truncate is not None:
        queries = {qid: docs[:truncate] for qid, docs in queries.items()}
    return RunList(queries=queries)


def write_run_file(run: Mapping[str, Sequence[tuple[str, float]]], path: str | Path, tag: str) -> None:
    """Write per-query ranked docs in 6-column TREC format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for qid in sorted(run):
            for rank, (doc, score) in enumerate(run[qid], start=1):
                fh.write(f"{qid} Q0 {doc} {rank} {score!r} {tag}\n")


# ---------------------------------------------------------------------------
# Canonical dataset directory
# ---------------------------------------------------------------------------


def _write_log(path: Path, log: InteractionLog) -> None:
    with path.open("w", encoding="utf-8") as fh:
        fh.write("user_id\titem_id\tlabel\ttimestamp\n")
        for rec in log.records:
            fh.write(f"{rec.user}\t{rec.item}\t{rec.label!r}\t{rec.timestamp}\n")


def write_dataset(dataset: SplitDataset, directory: str | Path) -> None:
    """Write a SplitDataset as versioned line-oriented tables plus a manifest."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        cat = dataset.catalog
        manifest = {
            "format_version": CANONICAL_FORMAT_VERSION,
            "counts": {name: len(log) for name, log in dataset.splits().items()},
            "split": {
                "ratios": [float(r) for r in dataset.split_spec[0]],
                "min_interactions": dataset.split_spec[1],
            },
            "has_user_groups": cat.user_groups is not None,
        }
        (directory / "manifest.yaml").write_text(yaml.safe_dump(manifest, sort_keys=True), encoding="utf-8")
        with (directory / "users.tsv").open("w", encoding="utf-8") as fh:
            fh.write("user_id\tgroup\n")
            for user in cat.users:
                group = "" if cat.user_groups is None else cat.user_groups.get(user, "")
                fh.write(f"{user}\t{group}\n")
        with (directory / "items.tsv").open("w", encoding="utf-8") as fh:
            for item in cat.items:
                fh.write(f"{item}\t{'|'.join(sorted(cat.item_groups[item]))}\n")
        for name, log in dataset.splits().items():
            _write_log(directory / f"{name}.tsv", log)
    except OSError as exc:
        raise IoError(f"cannot write dataset to {directory}: {exc}") from None


def read_dataset(directory: str | Path) -> SplitDataset:
    """Read back a canonical dataset directory (round-trip inverse of write_dataset)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.yaml"
    if not manifest_path.exists():
        raise IoError(f"no dataset manifest in {directory}")
    manifest = yaml.safe_load(manifest_path.read_text(encoding="utf-8"))
    version = manifest.get("format_version")
    if version != CANONICAL_FORMAT_VERSION:
        raise VersionError(f"dataset format version {version}, reader supports {CANONICAL_FORMAT_VERSION}")

    users: list[str] = []
    user_groups: dict[str, str] = {}
    with (directory / "users.tsv").open("r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            user, group = _user_group_fields(directory / "users.tsv", lineno, line)
            users.append(user)
            if group:
                user_groups[user] = group

    item_groups = parse_item_groups(directory / "items.tsv")
    logs: dict[str, InteractionLog] = {}
    for name in ("train", "valid", "test"):
        logs[name] = parse_interactions(directory / f"{name}.tsv")

    groups = sorted({g for gs in item_groups.values() for g in gs} | set(user_groups.values()))
    catalog = Catalog(
        users=users,
        items=sorted(item_groups),
        groups=groups,
        item_groups=item_groups,
        user_groups=user_groups if manifest.get("has_user_groups") else None,
    )
    split = manifest["split"]
    dataset = SplitDataset(
        train=logs["train"],
        valid=logs["valid"],
        test=logs["test"],
        catalog=catalog,
        split_spec=(tuple(split["ratios"]), split["min_interactions"]),
    )
    for log in logs.values():
        log.validate_against(catalog)
    counts = manifest.get("counts", {})
    for name, log in dataset.splits().items():
        if counts.get(name) != len(log):
            raise FormatError(f"{name} split has {len(log)} records, manifest says {counts.get(name)}")
    return dataset


def write_scores(scores: ScoreMatrix, directory: str | Path) -> None:
    """Write a ScoreMatrix into a dataset directory (scores.tsv + sidecar), users and items in id order."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "scores.meta.yaml").write_text(
            yaml.safe_dump({"semantics": scores.semantics}, sort_keys=True), encoding="utf-8"
        )
        items = scores.item_ids
        with (directory / "scores.tsv").open("w", encoding="utf-8") as fh:
            fh.write("user_id\titem_id\tscore\n")
            for user, scored, row in zip(scores.user_ids, scores.valid, scores.S):
                cols = np.flatnonzero(scored)
                fh.write("".join(f"{user}\t{items[i]}\t{s!r}\n" for i, s in zip(cols.tolist(), row[cols].tolist())))
    except OSError as exc:
        raise IoError(f"cannot write scores to {directory}: {exc}") from None


def read_scores(directory: str | Path) -> ScoreMatrix:
    """Read back a stored ScoreMatrix.

    Each line appends its user and item positions and its score to compact
    buffers, which are scattered into the score array once at the end.  A
    (user, item) pair on two lines is a :class:`ParseError` naming both.
    """
    directory = Path(directory)
    table = directory / "scores.tsv"
    if not table.exists():
        raise IoError(f"no scores.tsv in {directory}")
    semantics = "raw"
    meta_path = directory / "scores.meta.yaml"
    if meta_path.exists():
        semantics = yaml.safe_load(meta_path.read_text(encoding="utf-8")).get("semantics", "raw")
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    entries, values = array("q"), array("d")  # (user, item, line) positions; scores
    with table.open("r", encoding="utf-8") as fh:
        fh.readline()
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{table}: line {lineno}: expected 3 fields")
            user, item, raw = fields
            try:
                values.append(float(raw))
            except ValueError as exc:
                raise ParseError(f"{table}: line {lineno}: {exc}") from None
            entries.extend((users.setdefault(user, len(users)), items.setdefault(item, len(items)), lineno))
    rows, cols, lines = np.frombuffer(entries, dtype=np.int64).reshape(-1, 3).T
    S = np.zeros((len(users), len(items)))
    valid = np.zeros(S.shape, dtype=bool)
    S[rows, cols], valid[rows, cols] = np.frombuffer(values), True
    if np.count_nonzero(valid) < len(values):
        key = rows * len(items) + cols
        order = np.argsort(key, kind="stable")
        j = min(np.flatnonzero(key[order[1:]] == key[order[:-1]]), key=lambda j: order[j + 1])  # earliest repeat
        first, second = order[j], order[j + 1]
        pair = (list(users)[rows[first]], list(items)[cols[first]])
        raise ParseError(f"{table}: lines {lines[first]} and {lines[second]}: repeated score for {pair!r}")
    return ScoreMatrix(list(users), list(items), S, valid, semantics=semantics)
