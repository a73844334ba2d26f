"""Parsing of external file formats, filtering/splitting, and canonical on-disk I/O.

Formats handled here:

* interactions: header + TSV ``user_id item_id label timestamp`` (column
  names remappable through a column spec),
* item groups: TSV ``item_id<TAB>group1|group2|...`` (no header),
* diversity qrels: whitespace-separated ``qid intent_id doc_id rel``, read
  in chunks of lines into one query x doc x intent table
  (:class:`IntentJudgments`),
* run files: 6-column TREC format ``qid Q0 docid rank score tag``, read in
  chunks of lines into one queries x depth array (:class:`SearchRun`),
* the canonical dataset directory (versioned line-oriented tables plus a
  small manifest),
* stored scores: the ``scores.tsv`` import table, or the binary store
  ``scores.npz`` that in-processing writes, each with a ``scores.meta.yaml``
  sidecar.

Every writer here writes each file through :func:`replace_file`, so a run that
stops mid-write leaves the previous file whole.
"""

from __future__ import annotations

import io
import math
import operator
import os
import zipfile
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np
import yaml

from .core import Catalog, InteractionLog, ScoreMatrix, positions
from .errors import (
    EmptyDataset,
    FairrankError,
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
    """Chronologically split interaction data plus the catalog it references, each split put onto the
    catalog's ``users`` and ``items`` tables by the constructor (:meth:`InteractionLog.onto`)."""

    train: InteractionLog
    valid: InteractionLog
    test: InteractionLog
    catalog: Catalog
    split_spec: tuple[tuple[float, float, float], int]

    def __post_init__(self) -> None:
        self.train, self.valid, self.test = (log.onto(self.catalog) for log in (self.train, self.valid, self.test))

    def splits(self) -> dict[str, InteractionLog]:
        return {"train": self.train, "valid": self.valid, "test": self.test}


def _ascending(ids: Sequence[str]) -> bool:
    return all(map(operator.lt, ids, ids[1:]))


class IntentJudgments:
    """Intent-level binary judgments of every query, held as read-only arrays.

    ``query_ids`` ascend (position map ``query_pos``), as do the doc table ``doc_ids`` and each query ``q``'s
    intents ``intents[q]``.  Query ``q`` lists the docs it judges relevant as ``n_docs[q]`` ascending keys
    ``q * len(doc_ids) + d`` from ``listed[first_doc[q]]`` on, and ``rel[q, c, j]`` is True when its ``c``-th
    listed doc is relevant to its ``j``-th intent, of prior ``prior[q, j]``; padding is False or 0.
    ``ideal_dcg`` keeps the greedy ideal alpha-DCG state that ``metrics.alpha_ndcg`` builds, one per alpha.
    """

    def __init__(self, query_ids: Sequence[str], intents: Sequence[Sequence[str]], doc_ids: Sequence[str], listed,
                 rel, prior=None, duplicate_count: int = 0) -> None:
        """``rel`` is queries x docs x intents; ``prior`` (default: uniform) is queries x intents."""
        self.query_ids = list(query_ids)
        self.intents = [list(its) for its in intents]
        self.doc_ids = list(doc_ids)
        self.listed = np.array(listed, dtype=np.int64).reshape(-1)
        n_q, n_d = len(self.query_ids), len(self.doc_ids)
        if len(self.intents) != n_q:
            raise InvariantViolation("intents must be given for every query")
        if not (_ascending(self.query_ids) and _ascending(self.doc_ids)):
            raise InvariantViolation("query ids or doc ids are not distinct and ascending")
        if ((self.listed < 0) | (self.listed >= n_q * n_d)).any() or (np.diff(self.listed) <= 0).any():
            raise InvariantViolation("listed doc keys are not distinct and ascending within the query and doc tables")
        for qid, its in zip(self.query_ids, self.intents):
            if not its:
                raise InvariantViolation(f"query {qid!r} declares no intents")
            if not _ascending(its):
                raise InvariantViolation(f"intents of query {qid!r} are not distinct and ascending")
        self.n_intents = np.array([len(its) for its in self.intents], dtype=np.intp)
        self.n_docs = np.bincount(self.listed // max(n_d, 1), minlength=n_q)
        self.first_doc = np.cumsum(self.n_docs) - self.n_docs
        shape = (n_q, int(self.n_docs.max(initial=0)), int(self.n_intents.max(initial=0)))
        self.rel = np.array(rel, dtype=bool)
        if self.rel.shape != shape:
            raise InvariantViolation(f"relevance table has shape {self.rel.shape}, expected {shape}")
        declared = np.arange(shape[2]) < self.n_intents[:, None]
        judged = np.arange(shape[1]) < self.n_docs[:, None]
        doc = lambda q, d: self.doc_ids[self.listed[self.first_doc[q] + d] % n_d]  # query q's d-th listed doc
        for q, d in np.argwhere(self.rel.any(axis=2) != judged)[:1]:
            if d >= self.n_docs[q]:
                raise InvariantViolation(f"query {self.query_ids[q]!r} has relevance past its judged docs")
            raise InvariantViolation(f"doc {doc(q, d)!r} of query {self.query_ids[q]!r} has no positive relevance")
        for q, d, _ in np.argwhere(self.rel & ~declared[:, None, :])[:1]:
            raise InvariantViolation(f"doc {doc(q, d)!r} judged for undeclared intents")
        if prior is None:
            prior = np.where(declared, 1.0 / self.n_intents[:, None], 0.0)
        self.prior = np.array(prior, dtype=float)
        if self.prior.shape != (shape[0], shape[2]) or (self.prior[~declared] != 0.0).any():
            raise InvariantViolation("intent priors are not keyed by exactly the declared intents")
        for q, j in np.argwhere(declared & ~((self.prior >= 0.0) & (self.prior <= 1.0)))[:1]:
            raise InvariantViolation(f"prior {self.prior[q, j]} of intent {self.intents[q][j]!r} outside [0, 1]")
        if (np.abs(self.prior.sum(axis=1) - 1.0) > 1e-9).any():
            raise InvariantViolation("intent priors do not sum to 1")
        for table in (self.listed, self.rel, self.prior, self.n_intents, self.n_docs, self.first_doc):
            table.flags.writeable = False
        self.query_pos = {qid: q for q, qid in enumerate(self.query_ids)}
        self.duplicate_count = duplicate_count
        self.ideal_dcg: dict = {}

    def row(self, qid: str) -> int:
        """``qid``'s position; :class:`UnknownQuery` if it has no judgments."""
        try:
            return self.query_pos[qid]
        except KeyError:
            raise UnknownQuery(f"query {qid!r} has no intent judgments") from None

    def gather(self, rows: np.ndarray, docs: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Relevance as ``rows`` x ranks x intents of ``docs``, positions in a doc table whose entries sit at ``codes``
        in ``doc_ids`` (-1: none, as in ``docs``); each ``(query, doc)`` key is found in ``listed``."""
        code = np.append(codes, -1)[docs]  # docs' -1 picks the appended -1
        key = rows[:, None] * len(self.doc_ids) + code
        pos = np.searchsorted(self.listed, key)
        hit = (code >= 0) & (np.append(self.listed, -1)[pos] == key)
        out = np.zeros(docs.shape + self.rel.shape[2:], dtype=bool)
        out[hit] = self.rel[np.broadcast_to(rows[:, None], docs.shape)[hit], (pos - self.first_doc[rows, None])[hit]]
        return out


class SearchRun:
    """Every query's ranked docs, held as read-only arrays: ``query_ids`` ascend, ``doc_ids`` is an ascending
    doc table, and row ``q`` of the queries x depth ``docs`` and ``scores`` holds query ``q``'s ``lengths[q]`` doc
    positions in ``doc_ids`` (each at most once) and finite scores in rank order, padded with -1 and 0."""

    def __init__(self, query_ids: Sequence[str], doc_ids: Sequence[str], docs, scores) -> None:
        self.query_ids, self.doc_ids = list(query_ids), list(doc_ids)
        self.docs, self.scores = np.array(docs, dtype=np.intp, ndmin=2), np.array(scores, dtype=float)
        ranked = self.docs >= 0
        self.lengths = ranked.sum(axis=1)
        ordered = np.sort(self.docs, axis=1)
        if not (
            _ascending(self.query_ids) and _ascending(self.doc_ids)
            and self.docs.shape == self.scores.shape and len(self.docs) == len(self.query_ids)
            and (ranked == (np.arange(ranked.shape[1]) < self.lengths[:, None])).all()
            and self.docs.min(initial=-1) == -1 <= self.docs.max(initial=-1) < len(self.doc_ids)
            and not ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any()
            and np.isfinite(self.scores[ranked]).all()
        ):
            raise InvariantViolation("a run holds ascending ids, then per query distinct doc positions, -1 padded")
        for table in (self.docs, self.scores, self.lengths):
            table.flags.writeable = False
        self._codes: tuple = (None, None)  # the judgments last matched, and each doc's position in their table

    def codes_in(self, judg: IntentJudgments) -> np.ndarray:
        """Each doc table entry's position in ``judg.doc_ids`` (-1: none), matched by exact id once per judgments."""
        if self._codes[0] is not judg:
            self._codes = judg, positions(self.doc_ids, dict(zip(judg.doc_ids, count())))
        return self._codes[1]

    def rerank(self, positions) -> SearchRun:
        """The run of each row's docs at ``positions`` (a row per query, or one for all; -1 or past the row's
        docs: none), scored ``length - rank``."""
        positions = np.asarray(positions, dtype=np.intp)
        docs = np.where(positions >= 0, self.docs[np.arange(len(self.query_ids))[:, None], positions], -1)
        scores = (docs >= 0).sum(axis=1)[:, None] - np.arange(docs.shape[1])
        out = SearchRun(self.query_ids, self.doc_ids, docs, np.where(docs >= 0, scores, 0))
        out._codes = self._codes  # the same doc table
        return out


@contextmanager
def open_text(path: str | Path, what: str) -> Iterator[TextIO]:
    """Open the ``what`` file ``path`` as UTF-8 text: a missing file is an IoError, and
    bytes that do not decode anywhere in the block raise a ParseError naming it."""
    path = Path(path)
    try:
        fh = path.open("r", encoding="utf-8")
    except FileNotFoundError:
        raise IoError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise IoError(f"cannot read {what} file {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def read_table(path: str | Path, what: str, width: int | None = None) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, fields)`` for each non-blank tab-separated line of ``path``.

    A line with other than ``width`` fields (default: the first line's) is a ParseError.
    """
    with open_text(path, what) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if width is None:
                width = len(fields)
            if len(fields) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} fields, got {len(fields)}")
            yield lineno, fields


def read_yaml(path: str | Path, what: str, required: Sequence[str] = ()) -> dict:
    """The mapping in the YAML file ``path``; invalid YAML, a document that is not a
    mapping, or one without a ``required`` key is a ParseError naming the file."""
    with open_text(path, what) as fh:
        text = fh.read()
    try:
        data = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        raise ParseError(f"{path}: line {exc.problem_mark.line + 1}: not valid YAML ({exc.problem})") from None
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a date such as 2024-13-01, an over-long int
        raise ParseError(f"{path}: not valid YAML ({exc})") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: {what} is not a mapping")
    for key in required:
        if key not in data:
            raise ParseError(f"{path}: {what} has no {key!r} entry")
    return data


@contextmanager
def writing(directory: str | Path, what: str) -> Iterator[Path]:
    """Create ``directory`` and turn any OSError raised inside the block into an :class:`IoError`."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        yield directory
    except OSError as exc:
        raise IoError(f"cannot write {what} to {directory}: {exc}") from None


def replace_file(path: Path, data: str | bytes | memoryview) -> None:
    """Write ``data`` (a str as UTF-8) to ``.<name>.tmp`` beside ``path``, then rename it over ``path``.

    A write that fails leaves ``path`` as it was and no temporary file behind.
    """
    temporary = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(data, str):
            temporary.write_text(data, encoding="utf-8")
        else:
            temporary.write_bytes(data)
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)


def _converted(convert: Callable, dtype, column: Sequence[str]) -> tuple[np.ndarray, tuple[int, str] | None]:
    """The fields of ``column`` converted by ``convert`` into ``dtype`` up to the first that fails, and that
    field's row and error, or None."""
    rest = iter(column)
    try:
        return np.fromiter(map(convert, rest), dtype, len(column)), None
    except (ValueError, OverflowError) as exc:  # OverflowError: an int outside int64, as only timestamps are
        at = len(column) - operator.length_hint(rest) - 1  # the failing field was the last one taken
        error = str(exc) if isinstance(exc, ValueError) else f"timestamp {convert(column[at])} outside int64"
        return np.fromiter(map(convert, column[:at]), dtype, at), (at, error)


def parse_interactions(path: str | Path, column_spec: Mapping[str, str] | None = None) -> InteractionLog:
    """Parse a header + TSV interaction file into an InteractionLog.

    ``column_spec`` maps the roles user/item/label/timestamp to column names
    in the file.  Rows keep file order, and the id tables first-seen order.
    The earliest line whose label (``float``) or timestamp (``int``, within
    int64) does not convert, or whose label is outside [0, 5], is a ParseError.
    """
    spec = dict(DEFAULT_COLUMN_SPEC)
    if column_spec:
        spec.update(column_spec)
    rows = read_table(path, "interaction")
    _, header = next(rows, (1, []))  # the first non-blank line; an empty file has none
    for role in DEFAULT_COLUMN_SPEC:  # user, item, label, timestamp
        if spec[role] not in header:
            raise SchemaError(f"{role} column {spec[role]!r} not found in header of {path}")
    fields = operator.itemgetter(*(header.index(spec[role]) for role in DEFAULT_COLUMN_SPEC))
    numbers, lines = tuple(zip(*rows)) or ((), ())
    users, items, labels, stamps = tuple(zip(*map(fields, lines))) or ((),) * 4
    label, label_fault = _converted(float, np.float64, labels)
    stamp, stamp_fault = _converted(int, np.int64, stamps)
    outside = np.flatnonzero(~((label >= 0.0) & (label <= 5.0)))  # NaN fails both
    range_fault = (outside[0], f"label {float(label[outside[0]])} outside [0, 5]") if outside.size else None
    # The earliest line wins; on one line, a label that does not convert, then the timestamp, then the range.
    fault = min(filter(None, (label_fault, stamp_fault, range_fault)), key=operator.itemgetter(0), default=None)
    if fault:
        raise ParseError(f"{path}: line {numbers[fault[0]]}: {fault[1]}")
    user_table, item_table = defaultdict(count().__next__), defaultdict(count().__next__)
    user = np.fromiter(map(user_table.__getitem__, users), np.intp, len(users))
    item = np.fromiter(map(item_table.__getitem__, items), np.intp, len(items))
    return InteractionLog(list(user_table), list(item_table), user, item, label, stamp)


def parse_item_groups(path: str | Path) -> dict[str, frozenset[str]]:
    """Parse a TSV ``item_id<TAB>group1|group2|...`` membership file."""
    out: dict[str, frozenset[str]] = {}
    for lineno, (item, raw_groups) in read_table(path, "item-group", 2):
        groups = frozenset(g for g in raw_groups.split("|") if g)
        if not groups:
            raise ParseError(f"{path}: line {lineno}: item {item!r} has no groups")
        out[item] = groups
    return out


def parse_user_groups(path: str | Path) -> dict[str, str]:
    """Parse a TSV ``user_id<TAB>group`` file (no header)."""
    return {user: group for _, (user, group) in read_table(path, "user-group", 2)}


def _present(ids: list[str], column: np.ndarray) -> list[str]:
    """The ``ids`` that ``column`` points at, in ascending id order."""
    return sorted(map(ids.__getitem__, np.unique(column).tolist()))


def _catalog(users: list[str], item_groups: Mapping[str, frozenset], user_groups: Mapping | None) -> Catalog:
    """The catalog of ``users`` and the items of ``item_groups``, declaring the groups ``item_groups`` names."""
    groups = {g for gs in item_groups.values() for g in gs}
    ug = dict(user_groups) if user_groups is not None else None
    return Catalog(users, sorted(item_groups), sorted(groups), dict(item_groups), ug)


def build_catalog(
    log: InteractionLog,
    item_groups: Mapping[str, frozenset[str]],
    user_groups: Mapping[str, str] | None = None,
) -> Catalog:
    """Assemble a catalog from an interaction log and a membership map.

    Users come from the log, and ``user_groups`` rows of users absent from
    it are dropped; items come from the membership map (which must cover
    every item in the log); groups are the union of item memberships.
    """
    missing = set(_present(log.item_ids, log.item)) - set(item_groups)
    if missing:
        raise UnknownEntity(f"interactions reference items without groups: {sorted(missing)[:5]}")
    users = _present(log.user_ids, log.user)
    if user_groups is not None:
        user_groups = {user: user_groups[user] for user in users if user in user_groups}
    return _catalog(users, item_groups, user_groups)


def filter_and_split(
    log: InteractionLog,
    min_interactions: int = 5,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    catalog: Catalog | None = None,
) -> SplitDataset:
    """Drop sparse users and split each user's history chronologically.

    Users with fewer than ``min_interactions`` records are removed entirely.
    The retained records are sorted once, stably, by (user id, timestamp), so
    file order breaks ties, and each user's ``n`` records are cut at
    ``floor(n*r_train)`` and ``floor(n*(r_train+r_valid))``.
    The catalog is rebuilt restricted to retained users/items; ``catalog``
    supplies group membership (items default to a single shared group when
    it is omitted).
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise InvariantViolation("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise InvariantViolation("ratios must sum to 1")

    kept = log.take(np.flatnonzero(np.bincount(log.user, minlength=len(log.user_ids))[log.user] >= min_interactions))
    if not len(kept):
        raise EmptyDataset(f"no user has >= {min_interactions} interactions")
    users, items = _present(kept.user_ids, kept.user), _present(kept.item_ids, kept.item)
    item_groups, user_groups = {i: frozenset(["all"]) for i in items}, None
    if catalog is not None:
        missing = [i for i in items if i not in catalog.item_pos]
        if missing:
            raise UnknownEntity(f"log references items outside the catalog: {missing[:5]}")
        item_groups = {i: catalog.item_groups[i] for i in items}
        if catalog.user_groups is not None:
            user_groups = {u: catalog.user_groups[u] for u in users if u in catalog.user_groups}
    new_catalog = _catalog(users, item_groups, user_groups)
    kept = kept.onto(new_catalog)
    order = np.lexsort((kept.timestamp, kept.user))  # the catalog's users ascend by id
    user = kept.user[order]
    n = np.bincount(user)
    rank = np.arange(len(order)) - (np.cumsum(n) - n)[user]  # each record's place in its user's history
    # The small epsilon keeps floor() at the intended integer when n*r is
    # representable only as 8.999999... in binary floating point.
    cut1, cut2 = (np.floor(n * r + 1e-9)[user] for r in (ratios[0], ratios[0] + ratios[1]))
    splits = (kept.take(order[part]) for part in (rank < cut1, (rank >= cut1) & (rank < cut2), rank >= cut2))
    return SplitDataset(*splits, catalog=new_catalog, split_spec=(tuple(ratios), min_interactions))


QRELS_CHUNK_CHARS = 1 << 18  # readlines() size hint: bounds the lines and tokens a parser holds at once
_END = "\0"  # marks each line end among a chunk's tokens


def _chunks(path: Path, what: str, width: int, error: Callable[[int, int], FairrankError]) -> Iterator[tuple]:
    """Yield ``(line numbers, tokens, error)`` for each chunk of whole lines of the ``what`` file ``path``: the
    fields, ``width`` a line, of the non-blank lines before the chunk's first line of another width, and
    ``error(line number, width)`` of that line or None, for the caller to raise after checking the lines before.
    A chunk is split once with a mark at each line end, and again line by line only if its marks are misplaced."""
    lineno = 1
    with open_text(path, what) as fh:
        while lines := fh.readlines(QRELS_CHUNK_CHARS):
            text = "".join(lines).replace("\n", f" {_END} ") + ("" if lines[-1].endswith("\n") else f" {_END}")
            tokens, n = text.split(), len(lines)
            if len(tokens) == (width + 1) * n and tokens[width :: width + 1].count(_END) == n == tokens.count(_END):
                del tokens[width :: width + 1]
                yield np.arange(lineno, lineno + n), tokens, None
            else:
                fields = list(map(str.split, lines))
                widths = np.fromiter(map(len, fields), np.intp, n)
                bad = np.append(np.flatnonzero((widths != width) & (widths != 0)), n)[0]
                error_at = error(lineno + bad, widths[bad]) if bad < n else None
                yield np.flatnonzero(widths[:bad]) + lineno, list(chain.from_iterable(fields[:bad])), error_at
            lineno += n


def _ranked(names: list[str], column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``names`` in ascending id order, and the position among them of each index into ``names`` in ``column``."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=np.int64)
    rank[order] = np.arange(len(names))
    return [names[c] for c in order], rank[column]


def _split(names: list[str], pairs: np.ndarray, n_names: int, n_q: int) -> tuple[list[list[str]], np.ndarray]:
    """Per-query name lists from ascending ``query * n_names + name`` pairs, and each query's first pair index."""
    counts = np.bincount(pairs // n_names, minlength=n_q)
    bounds = np.cumsum(counts)
    flat = [names[c] for c in (pairs % n_names).tolist()]
    return [flat[a:b] for a, b in zip([0, *bounds[:-1].tolist()], bounds.tolist())], bounds - counts


def parse_diversity_qrels(path: str | Path) -> IntentJudgments:
    """Parse ``qid intent_id doc_id rel`` judgments; priors default to uniform.

    The file is read in chunks of whole lines.  Each chunk's field counts
    and relevance values are checked (a :class:`ParseError` names the
    earliest bad line), and its qid, intent and doc columns become int
    codes.  A query declares every intent it has a line for; its docs are
    those with a relevance-1 line.  Duplicate (qid, intent, doc) lines are
    resolved last-wins and counted in ``duplicate_count``.
    """
    tables = tuple(defaultdict(count().__next__) for _ in range(3))  # qid, intent, doc -> code, in first-seen order
    columns: tuple[list[np.ndarray], ...] = ([], [], [])
    rels = bytearray()
    shape = lambda lineno, n: ParseError(f"{path}: line {lineno}: expected 'qid intent doc rel', got {n} fields")
    for numbers, tokens, error in _chunks(path, "qrels", 4, shape):
        if not set(tokens[3::4]) <= {"0", "1"}:
            at, rel = next((at, rel) for at, rel in enumerate(tokens[3::4]) if rel not in ("0", "1"))
            raise ParseError(f"{path}: line {numbers[at]}: relevance {rel!r} not in {{0, 1}}")
        if error is not None:
            raise error
        for offset, table, column in zip(range(3), tables, columns):
            column.append(np.fromiter(map(table.__getitem__, tokens[offset::4]), np.intp))
        rels += "".join(tokens[3::4]).encode("ascii")
    if not rels:
        return IntentJudgments([], [], [], [], np.zeros((0, 0, 0), dtype=bool))
    (qids, q), (intents, i), (docs, d) = map(_ranked, map(list, tables), map(np.concatenate, columns))
    n_q, n_i, n_d = len(qids), len(intents), len(docs)
    key = (q * n_i + i) * n_d + d
    order = np.argsort(key, kind="stable")
    last = np.append(key[order[1:]] != key[order[:-1]], True)  # the last line of each (qid, intent, doc) wins
    kept = order[last]
    q, i, d = q[kept], i[kept], d[kept]
    positive = np.frombuffer(rels, dtype=np.uint8)[kept] == ord("1")
    pairs = q * n_i + i  # ascending, as the kept lines are in key order
    new = np.append(True, pairs[1:] != pairs[:-1])
    intent_of = np.cumsum(new) - 1
    query_intents, first_intent = _split(intents, pairs[new], n_i, n_q)
    col = (intent_of - first_intent[q])[positive]
    q, d = q[positive], d[positive]
    listed, doc_of = np.unique(q * n_d + d, return_inverse=True)
    first_doc = np.searchsorted(listed, np.arange(n_q) * n_d)
    rel = np.zeros((n_q, np.bincount(listed // n_d, minlength=n_q).max(), max(map(len, query_intents))), dtype=bool)
    rel[q, doc_of - first_doc[q], col] = True
    return IntentJudgments(qids, query_intents, docs, listed, rel, duplicate_count=len(key) - len(kept))


def _run_values(path: Path, numbers: np.ndarray, tokens: list[str]) -> tuple:
    """The ranks (Python ints, which may pass int64) and scores of a run chunk's lines up to the first whose rank or
    score is unusable, and a FormatError naming that line, or None."""
    values = lambda n: (np.fromiter(map(int, tokens[3 : 6 * n : 6]), object),
                        np.fromiter(map(float, tokens[4 : 6 * n : 6]), float))
    try:
        ranks, scores = values(len(numbers))
        if np.isfinite(scores).all():
            return ranks, scores, None
    except ValueError:
        pass
    for at, (rank, score) in enumerate(zip(tokens[3::6], tokens[4::6])):  # the chunk's first bad line
        try:
            int(rank)
            if not math.isfinite(float(score)):
                raise ValueError("non-finite score")
        except ValueError as exc:
            return (*values(at), FormatError(f"{path}: line {numbers[at]}: {exc}"))
    raise AssertionError("unreachable: the whole chunk failed to convert, so one of its lines does")


def parse_run_file(path: str | Path, truncate: int | None = 50) -> SearchRun:
    """Parse a 6-column TREC run file in chunks of lines, keeping the top ``truncate`` docs per query.

    Queries may interleave; each keeps its file order.  A :class:`FormatError` names the earliest line, past
    ``truncate`` too, of another width, with a rank not an int or not above its query's last, a score not finite,
    or a doc its query listed before."""
    tables = (defaultdict(count().__next__), defaultdict(count().__next__))  # qid, doc -> code, in first-seen order
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, object), np.empty(0))]
    shape, pending = lambda lineno, n: FormatError(f"{path}: line {lineno}: expected 6 TREC columns, got {n}"), None
    for numbers, tokens, error in _chunks(path, "run", 6, shape):
        ranks, scores, pending = _run_values(path, numbers, tokens)
        n = len(ranks)
        q, d = (np.fromiter(map(t.__getitem__, tokens[at : 6 * n : 6]), np.intp) for at, t in zip((0, 2), tables))
        parts.append((numbers[:n], q, d, ranks, scores))
        if pending := pending or error:
            break
    numbers, q, d, ranks, scores = (np.concatenate(column) for column in zip(*parts))
    query_ids, row = _ranked(list(tables[0]), q)
    order = np.argsort(row, kind="stable")  # each query's lines, in file order
    later = order[1:][(row[order[1:]] == row[order[:-1]]) & (ranks[order[1:]] <= ranks[order[:-1]])]
    key = row * len(tables[1]) + d
    by_key = np.argsort(key, kind="stable")
    repeated = by_key[1:][key[by_key[1:]] == key[by_key[:-1]]]
    if (at := min(later.min(initial=len(q)), repeated.min(initial=len(q)))) < len(q):
        where, qid = f"{path}: line {numbers[at]}", query_ids[row[at]]
        if at in later:
            raise FormatError(f"{where}: rank {ranks[at]} not strictly increasing for query {qid!r}")
        raise FormatError(f"{where}: duplicate doc {list(tables[1])[d[at]]!r} for query {qid!r}")
    if pending:
        raise pending
    row = row[order]
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    if truncate is not None:  # sliced as a list is: a negative truncate drops that many from each query's end
        keep = rank < (truncate if truncate >= 0 else np.bincount(row)[row] + truncate)
        order, row, rank = order[keep], row[keep], rank[keep]
    used, code = np.unique(d[order], return_inverse=True)
    names = list(tables[1])
    doc_ids, code = _ranked([names[c] for c in used.tolist()], code)
    docs = np.full((len(query_ids), rank.max(initial=-1) + 1), -1)
    table = np.zeros(docs.shape)
    docs[row, rank], table[row, rank] = code, scores[order]
    return SearchRun(query_ids, doc_ids, docs, table)


def write_run_file(run: SearchRun, path: str | Path, tag: str) -> None:
    """Write every query's ranked docs in 6-column TREC format."""
    path, ranked = Path(path), run.docs >= 0
    entries = zip(*(a.tolist() for a in (*np.nonzero(ranked), run.docs[ranked], run.scores[ranked])))
    lines = (f"{run.query_ids[q]} Q0 {run.doc_ids[d]} {r + 1} {s!r} {tag}\n" for q, r, d, s in entries)
    with writing(path.parent, "run file"):
        replace_file(path, "".join(lines))


# ---------------------------------------------------------------------------
# Canonical dataset directory
# ---------------------------------------------------------------------------


def _write_log(path: Path, log: InteractionLog) -> None:
    users, items = map(log.user_ids.__getitem__, log.user.tolist()), map(log.item_ids.__getitem__, log.item.tolist())
    lines = map("{}\t{}\t{!r}\t{}\n".format, users, items, log.label.tolist(), log.timestamp.tolist())
    replace_file(path, "user_id\titem_id\tlabel\ttimestamp\n" + "".join(lines))


def write_dataset(dataset: SplitDataset, directory: str | Path) -> None:
    """Write a SplitDataset as versioned line-oriented tables plus a manifest."""
    with writing(directory, "dataset") as directory:
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
        replace_file(directory / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=True))
        user_groups = cat.user_groups or {}
        users = "".join(f"{user}\t{user_groups.get(user, '')}\n" for user in cat.users)
        replace_file(directory / "users.tsv", "user_id\tgroup\n" + users)
        items = "".join(f"{item}\t{'|'.join(sorted(cat.item_groups[item]))}\n" for item in cat.items)
        replace_file(directory / "items.tsv", items)
        for name, log in dataset.splits().items():
            _write_log(directory / f"{name}.tsv", log)


def read_dataset(directory: str | Path) -> SplitDataset:
    """Read back a canonical dataset directory (round-trip inverse of write_dataset)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.yaml"
    manifest = read_yaml(manifest_path, "dataset manifest", required=("format_version", "counts", "split"))
    version = manifest["format_version"]
    if version != CANONICAL_FORMAT_VERSION:
        raise VersionError(f"dataset format version {version}, reader supports {CANONICAL_FORMAT_VERSION}")
    split, counts = manifest["split"], manifest["counts"]
    if not (isinstance(counts, dict) and isinstance(split, dict) and isinstance(split.get("ratios"), list)
            and "min_interactions" in split):
        raise ParseError(f"{manifest_path}: counts must be a mapping, split one with ratios and min_interactions")

    user_rows = [fields for _, fields in islice(read_table(directory / "users.tsv", "user", 2), 1, None)]
    users = [user for user, _ in user_rows]
    user_groups = {user: group for user, group in user_rows if group}

    item_groups = parse_item_groups(directory / "items.tsv")
    logs = {name: parse_interactions(directory / f"{name}.tsv") for name in ("train", "valid", "test")}
    catalog = _catalog(users, item_groups, user_groups if manifest.get("has_user_groups") else None)
    dataset = SplitDataset(**logs, catalog=catalog, split_spec=(tuple(split["ratios"]), split["min_interactions"]))
    for name, log in dataset.splits().items():
        if counts.get(name) != len(log):
            raise FormatError(f"{directory}: {name} split has {len(log)} records, manifest says {counts.get(name)}")
    return dataset


def _write_sidecar(scores: ScoreMatrix, directory: Path) -> None:
    replace_file(directory / "scores.meta.yaml", yaml.safe_dump({"semantics": scores.semantics}, sort_keys=True))


# The binary store's members and, for each, its dtype (a numpy dtype, or "U" for any
# str width) and number of dimensions.
_STORE_MEMBERS = {
    "S": (np.dtype(np.float64), 2),
    "valid": (np.dtype(bool), 2),
    "user_ids": ("U", 1),
    "item_ids": ("U", 1),
}
# What zipfile and np.lib.format.read_array raise on a damaged archive: a missing member
# is a KeyError, an unknown zip version a NotImplementedError, and a header declaring an
# array too large to allocate a MemoryError.
_STORE_FAULTS = (
    zipfile.BadZipFile, KeyError, OSError, ValueError, EOFError, OverflowError, MemoryError, NotImplementedError
)
# Appended to every stored id, because numpy str arrays drop trailing NULs; a str dtype
# given explicitly keeps an empty id table from defaulting to float64.
_ID_END = "."


def write_scores(scores: ScoreMatrix, directory: str | Path) -> None:
    """Write a ScoreMatrix as the binary store ``scores.npz`` plus the ``scores.meta.yaml`` sidecar.

    The store is an uncompressed ``np.savez`` archive of ``S``, ``valid``, ``user_ids``
    and ``item_ids``, with nothing pickled; ``S`` and ``valid`` are the matrix's own
    arrays, so users with no scored item keep their empty rows.  A ``scores.tsv`` in
    ``directory`` is removed.
    """
    with writing(directory, "scores") as directory:
        _write_sidecar(scores, directory)
        ids = {name: np.array([i + _ID_END for i in table], dtype=str)
               for name, table in (("user_ids", scores.user_ids), ("item_ids", scores.item_ids))}
        store = io.BytesIO()
        np.savez(store, S=scores.S, valid=scores.valid, **ids)
        replace_file(directory / "scores.npz", store.getbuffer())
        (directory / "scores.tsv").unlink(missing_ok=True)


def write_scores_tsv(scores: ScoreMatrix, directory: str | Path) -> None:
    """Write a ScoreMatrix as the import table ``scores.tsv`` plus the sidecar, users and items in id order.

    A ``scores.npz`` in ``directory`` is removed first, as :func:`read_scores` would
    prefer it to the table.
    """
    with writing(directory, "scores") as directory:
        (directory / "scores.npz").unlink(missing_ok=True)
        _write_sidecar(scores, directory)
        items = scores.item_ids
        rows = ["user_id\titem_id\tscore\n"]
        for user, scored, row in zip(scores.user_ids, scores.valid, scores.S):
            cols = np.flatnonzero(scored)
            rows.append("".join(f"{user}\t{items[i]}\t{s!r}\n" for i, s in zip(cols.tolist(), row[cols].tolist())))
        replace_file(directory / "scores.tsv", "".join(rows))


def _read_store(path: Path, semantics: str) -> ScoreMatrix:
    """The ScoreMatrix in the binary store ``path``; any fault in it is a ParseError naming it."""
    arrays = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for name, (dtype, ndim) in _STORE_MEMBERS.items():
                info = archive.getinfo(f"{name}.npy")
                if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                    raise ParseError(f"{path}: member {name} is compressed or encrypted")
                with archive.open(info) as fh:
                    array = np.lib.format.read_array(fh, allow_pickle=False)
                if array.ndim != ndim or (array.dtype.kind != dtype if dtype == "U" else array.dtype != dtype):
                    found = f"{array.ndim}-d {array.dtype}"
                    raise ParseError(f"{path}: member {name} is {found}, expected {ndim}-d {dtype}")
                arrays[name] = array
    except _STORE_FAULTS as exc:
        raise ParseError(f"{path}: not a readable score store ({type(exc).__name__}: {exc})") from None
    ids = {}
    for name in ("user_ids", "item_ids"):
        table = arrays[name].tolist()
        if not all(i.endswith(_ID_END) for i in table):
            raise ParseError(f"{path}: member {name} holds an id without its end mark")
        ids[name] = [i[:-1] for i in table]
    try:
        return ScoreMatrix(ids["user_ids"], ids["item_ids"], arrays["S"], arrays["valid"], semantics=semantics)
    except InvariantViolation as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_scores(directory: str | Path) -> ScoreMatrix:
    """Read back a stored ScoreMatrix: the store ``scores.npz`` when the directory holds
    one, else the table ``scores.tsv``.

    Of the table, each line appends its user and item positions and its score to compact
    buffers, which are scattered into the score array once at the end.  A
    (user, item) pair on two lines is a :class:`ParseError` naming both.
    The ``scores.meta.yaml`` sidecar is optional (semantics ``raw``).
    """
    directory = Path(directory)
    table = directory / "scores.tsv"
    meta = directory / "scores.meta.yaml"
    semantics = read_yaml(meta, "score sidecar", required=("semantics",))["semantics"] if meta.exists() else "raw"
    if semantics not in ("raw", "probability"):
        raise ParseError(f"{meta}: unknown score semantics {semantics!r}")
    if (directory / "scores.npz").exists():
        return _read_store(directory / "scores.npz", semantics)
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    entries, values = array("q"), array("d")  # (user, item, line) positions; scores
    for lineno, (user, item, raw) in islice(read_table(table, "score", 3), 1, None):
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
