"""Parsing of external file formats, filtering/splitting, and canonical on-disk I/O.

Formats handled here:

* interactions: header + TSV ``user_id item_id label timestamp`` (column
  names remappable through a column spec),
* item groups: TSV ``item_id<TAB>group1|group2|...`` (no header),
* diversity qrels: whitespace-separated ``qid intent_id doc_id rel``, read
  into one query x doc x intent table (:class:`IntentJudgments`),
* run files: 6-column TREC format ``qid Q0 docid rank score tag``, read into
  one queries x depth array (:class:`SearchRun`),
* the canonical dataset directory (versioned line-oriented tables plus a
  small manifest),
* stored scores: the ``scores.tsv`` import table, or the binary store
  ``scores.npz`` that in-processing writes (:mod:`fairrank.store`), each with a
  ``scores.meta.yaml`` sidecar.

Every text file above is read by one column reader, :func:`_read`, from the
column spec its parser declares: each column's name, field and kind (an id coded
into a first-seen table, an int, a float, a {0, 1} flag or raw text).  It splits
bounded chunks of whole lines into fields (on tabs in tables, on any whitespace in
qrels and run files), converts each chunk's columns, and joins each column once;
an error names the earliest bad line.
Every writer here writes each file through :func:`~fairrank.store.replace_file`, so
a run that stops mid-write leaves the previous file whole.
Given a ``cache`` directory, the score table, run and qrels readers keep what they
parse there as a binary store keyed by the input's content
(:func:`~fairrank.store.cached`), and later reads of the same bytes rebuild it from
the store.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np
import yaml

from .core import SCORE_CELL_LIMIT, Catalog, InteractionLog, ScoreMatrix, positions
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
from .store import cached, read_store, refuse_unreadable, replace_file, write_store

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


CHUNK_CHARS = 1 << 18  # readlines() size hint: bounds the lines and tokens a reader holds at once
_END = "\0"  # marks each line end among a chunk's tokens


class _Kind(NamedTuple):
    """A column kind: ``convert`` turns each field into ``dtype`` (into ``wide``, if given, in a chunk with a value
    that overflows ``dtype``), and ``valid`` marks the values in range, ``fault`` wording one that is not from the
    column's ``name``, the ``value`` and the line's ``fields``.  An id column (no ``convert``) becomes int32 codes in
    a first-seen table of its own (a code counts distinct ids, so it stays below 2**31 for any file that fits in
    memory), and a text column (no ``dtype``) keeps its fields."""

    convert: Callable | None = None
    dtype: object = None
    wide: object = None
    valid: Callable | None = None
    fault: str = ""


class _Flags(dict):
    def __missing__(self, field: str) -> bool:
        raise ValueError(f"relevance {field!r} not in {{0, 1}}")


_ID, _TEXT = _Kind(dtype=np.dtype(np.int32)), _Kind()
_INT, _FLOAT = _Kind(int, np.dtype(np.int64)), _Kind(float, np.dtype(np.float64))
_RANK = _INT._replace(wide=object)  # a chunk with a rank past int64 holds Python ints, compared exactly
_FLAG = _Kind(_Flags({"0": False, "1": True}).__getitem__, bool)
_FINITE = _FLOAT._replace(valid=np.isfinite, fault="non-finite {name}")
_LABEL = _FLOAT._replace(valid=lambda v: (v >= 0.0) & (v <= 5.0), fault="{name} {value} outside [0, 5]")
_GROUPS = _Kind(lambda raw: frozenset(filter(None, raw.split("|"))), object, valid=lambda v: v.astype(bool),
                fault="item {fields[0]!r} has no groups")


def _converted(kind: _Kind, fields: list[str], name: str) -> tuple[np.ndarray, tuple | None]:
    """``fields`` converted as ``kind`` up to the first that fails, and that field's row and error, or None."""
    rest = iter(fields)
    try:
        return np.fromiter(map(kind.convert, rest), kind.dtype, len(fields)), None
    except (ValueError, OverflowError) as exc:  # OverflowError: an int outside an int dtype
        if kind.wide and isinstance(exc, OverflowError):
            return _converted(kind._replace(dtype=kind.wide, wide=None), fields, name)
        at = len(fields) - operator.length_hint(rest) - 1  # the failing field was the last one taken
        error = str(exc) if isinstance(exc, ValueError) else f"{name} {kind.convert(fields[at])} outside {kind.dtype}"
        return np.fromiter(map(kind.convert, fields[:at]), kind.dtype, at), (at, error)


def _repeat(key: np.ndarray) -> tuple[int, int] | None:
    """The rows of the earliest line whose ``key`` an earlier line has and of the latest such earlier line, or
    None."""
    order = np.argsort(key, kind="stable")
    same = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    j = same[np.argmin(order[same + 1])] if same.size else None
    return None if j is None else (int(order[j]), int(order[j + 1]))


def _refuse_repeats(path: str | Path, key: np.ndarray, line: Callable[[int], int], what: Callable[[int], str]) -> None:
    """Raise a ParseError naming the earliest line of ``path`` whose ``key`` an earlier line has, the latest such
    earlier line, and ``what`` of its row; ``line`` gives a row's line number."""
    if repeat := _repeat(key):
        raise ParseError(f"{path}: lines {line(repeat[0])} and {line(repeat[1])}: repeated {what(repeat[0])}")


def _read(path: str | Path, what: str, width: int | None, columns: tuple | Callable, sep: str | None = "\t",
          header: bool = False, error: type = ParseError, shape: str = "expected {width} fields, got {n}",
          defer: bool = False) -> tuple[dict, Callable[[int], int], Exception | None]:
    """The ``columns``, as ``(name, kind, field)``, of the ``what`` file ``path``, whose non-blank lines hold
    ``width`` fields split on ``sep`` (or on any whitespace; split on ``sep``, only an empty line is blank).  With
    ``header``, the first non-blank line is a header: ``width`` may be None for its width, and ``columns`` a function
    of its fields.  The earliest line of another width (worded by ``shape``), with a field that does not convert or
    with a value out of range (on one line: a conversion, then a range, each by column) ends the rows with an
    ``error``, raised here unless ``defer``.
    Returns each column by name (an id column as its ids, in first-seen order, and their codes), a function giving
    a row's line number, and the error, or None.
    The file is read in chunks of whole lines, one held at a time.  A chunk is split once with a mark at each line
    end, and again line by line only if its marks are misplaced; its columns are then converted.  Each column is
    joined once the file is read, releasing its chunk parts."""
    split, gap, numbers_of, pending = (lambda line: line.split(sep) if line else []), sep or " ", [], None
    with open_text(path, what) as fh:
        fields, lineno = [], 1
        while header and not fields and (line := fh.readline()):
            fields, lineno = split(line.removesuffix("\n")), lineno + 1
        columns = columns(fields) if callable(columns) else columns
        width = width or len(fields)
        if len(fields) not in (0, width):
            pending = error(f"{path}: line {lineno - 1}: " + shape.format(width=width, n=len(fields)))
        tables = {name: defaultdict(count().__next__) for name, kind, _ in columns if kind is _ID}
        parts: dict[str, list] = {name: [] for name, _, _ in columns}
        while not pending and (lines := fh.readlines(CHUNK_CHARS)):
            n, blank, text = len(lines), "\n" in lines, "".join(lines).removesuffix("\n")
            del lines
            tokens = (text.replace("\n", f"{gap}{_END}{gap}") + gap + _END).split(sep)
            # An empty line split on ``sep`` is one empty field, so it can pass as a line of width 1.
            if (len(tokens) == (width + 1) * n and tokens[width :: width + 1].count(_END) == n == tokens.count(_END)
                    and not blank):
                del tokens[width :: width + 1], text
                numbers, faults = range(lineno, lineno + n), []
            else:  # line by line; a line of another width ends the rows, after every row before it
                fields = list(map(split, text.split("\n")))
                widths = np.fromiter(map(len, fields), np.intp, n)
                bad = np.append(np.flatnonzero((widths != width) & (widths != 0)), n)[0]
                numbers, tokens = np.flatnonzero(widths[: bad + 1]) + lineno, list(chain.from_iterable(fields[:bad]))
                faults = [(len(numbers) - 1, shape.format(width=width, n=widths[bad]))] if bad < n else []
                del fields, text
            values = {name: _converted(kind, tokens[at::width], name) for name, kind, at in columns if kind.convert}
            faults += [fault for _, fault in values.values()]
            for name, kind, _ in columns:  # on one line, a value out of range comes after any field that fails
                for out in np.flatnonzero(~kind.valid(values[name][0]))[:1] if kind.valid else ():
                    fields = tokens[width * out : width * (out + 1)]
                    faults.append((out, kind.fault.format(name=name, value=values[name][0][out], fields=fields)))
            rows, fault = min(filter(None, faults), key=operator.itemgetter(0), default=(len(numbers), None))
            for name, kind, at in columns:
                part = values[name][0][:rows] if kind.convert else tokens[at : width * rows : width]
                if kind is _ID:
                    part = np.fromiter(map(tables[name].__getitem__, part), kind.dtype, rows)
                parts[name].append(part)
            numbers_of.append(numbers[:rows])
            if fault:
                pending = error(f"{path}: line {numbers[rows]}: {fault}")
            del tokens, values
            lineno += n
    if pending and not defer:
        raise pending
    for name, kind, _ in columns:  # one column at a time, its chunk parts released once joined
        part = parts[name]
        parts[name] = np.concatenate([np.empty(0, kind.dtype), *part]) if kind.dtype else [*chain.from_iterable(part)]
        part.clear()
        if name in tables:
            parts[name] = list(tables.pop(name)), parts[name]
    return parts, lambda row: int(next(islice(chain.from_iterable(numbers_of), row, None))), pending


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


def parse_interactions(path: str | Path, column_spec: Mapping[str, str] | None = None) -> InteractionLog:
    """Parse a header + TSV interaction file into an InteractionLog.

    ``column_spec`` maps the roles user/item/label/timestamp to column names
    in the file.  Rows keep file order, and the id tables first-seen order.
    The earliest line of another width than the header, whose label
    (``float``) or timestamp (``int``, within int64) does not convert, or
    whose label is outside [0, 5], is a ParseError.
    """
    spec = {**DEFAULT_COLUMN_SPEC, **(column_spec or {})}

    def columns(header: list[str]) -> tuple:
        for role in DEFAULT_COLUMN_SPEC:  # user, item, label, timestamp
            if spec[role] not in header:
                raise SchemaError(f"{role} column {spec[role]!r} not found in header of {path}")
        kinds = zip(DEFAULT_COLUMN_SPEC, (_ID, _ID, _LABEL, _INT))
        return tuple((role, kind, header.index(spec[role])) for role, kind in kinds)

    (users, user), (items, item), label, stamp = _read(path, "interaction", None, columns, header=True)[0].values()
    return InteractionLog(users, items, user, item, label, stamp)


def parse_item_groups(path: str | Path) -> dict[str, frozenset[str]]:
    """Parse a TSV ``item_id<TAB>group1|group2|...`` membership file; a repeated item's last line wins."""
    return dict(zip(*_read(path, "item-group", 2, (("item", _TEXT, 0), ("groups", _GROUPS, 1)))[0].values()))


def parse_user_groups(path: str | Path) -> dict[str, str]:
    """Parse a TSV ``user_id<TAB>group`` file (no header)."""
    return dict(zip(*_read(path, "user-group", 2, (("user", _TEXT, 0), ("group", _TEXT, 1)))[0].values()))


def _present(ids: list[str], column: np.ndarray) -> list[str]:
    """The ``ids`` that ``column`` points at, in ascending id order."""
    return sorted(map(ids.__getitem__, np.flatnonzero(np.bincount(column, minlength=len(ids))).tolist()))


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


def _ranked(names: list[str], column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """``names`` in ascending id order, and the position among them of each index into ``names`` in ``column``,
    of ``column``'s dtype."""
    order = sorted(range(len(names)), key=names.__getitem__)
    rank = np.empty(len(names), dtype=column.dtype)
    rank[order] = np.arange(len(names))
    return [names[c] for c in order], rank[column]


def _split(names: list[str], pairs: np.ndarray, n_names: int, n_q: int) -> tuple[list[list[str]], np.ndarray]:
    """Per-query name lists from ascending ``query * n_names + name`` pairs, and each query's first pair index."""
    counts = np.bincount(pairs // n_names, minlength=n_q)
    bounds = np.cumsum(counts)
    flat = [names[c] for c in (pairs % n_names).tolist()]
    return [flat[a:b] for a, b in zip([0, *bounds[:-1].tolist()], bounds.tolist())], bounds - counts


def parse_diversity_qrels(path: str | Path, cache: Path | None = None) -> IntentJudgments:
    """Parse ``qid intent_id doc_id rel`` judgments, kept in the parse cache ``cache``
    (:func:`~fairrank.store.cached`); priors default to uniform.

    The qid, intent and doc codes (:func:`_read`) are each ranked to
    ascending ids on their own, one column at a time, and the three become
    one int64 key ``(q * n_i + i) * n_d + d`` per line; one stable sort of
    the keys resolves duplicate (qid, intent, doc) lines last-wins, counted
    in ``duplicate_count``, and only the kept lines' keys go on.  A query
    declares every intent it has a line for; its docs are those with a
    relevance-1 line.
    """
    return cached(cache, "qrels", path, (), _QRELS_STORE, partial(_parse_diversity_qrels, path), _judgments,
                   lambda judg: SimpleNamespace(**vars(judg), intent_ids=list(chain.from_iterable(judg.intents))))


def _judgments(query_ids, intent_ids, n_intents, doc_ids, listed, rel, duplicate_count) -> IntentJudgments:
    """The judgments of a parse-cache entry: ``intent_ids`` cut into each query's ``n_intents``."""
    bounds = np.cumsum(n_intents).tolist()
    intents = [intent_ids[a:b] for a, b in zip([0, *bounds], bounds)]
    return IntentJudgments(query_ids, intents, doc_ids, listed, rel, duplicate_count=int(duplicate_count))


def _parse_diversity_qrels(path: str | Path) -> IntentJudgments:
    columns = _read(path, "qrels", 4, (("qid", _ID, 0), ("intent", _ID, 1), ("doc", _ID, 2), ("relevance", _FLAG, 3)),
                    None, shape="expected 'qid intent doc rel', got {n} fields")[0]
    if not len(columns["relevance"]):
        return IntentJudgments([], [], [], [], np.zeros((0, 0, 0), dtype=bool))
    (qids, q), (intents, i), (docs, d) = (_ranked(*columns.pop(name)) for name in ("qid", "intent", "doc"))
    n_q, n_i, n_d = len(qids), len(intents), len(docs)
    key = (q.astype(np.int64) * n_i + i) * n_d + d  # int32 times an int stays int32, and the key may pass 2**31
    del q, i, d
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.append(key[1:] != key[:-1], True)  # the last line of each (qid, intent, doc) wins
    duplicate_count = len(key) - int(np.count_nonzero(last))
    key = key[last]
    positive = columns.pop("relevance")[order[last]]
    del order, last
    pairs = key // n_d  # q * n_i + i, ascending
    declared = pairs[np.append(True, pairs[1:] != pairs[:-1])]  # each query's intents, as pairs
    query_intents, first_intent = _split(intents, declared, n_i, n_q)
    pairs, d = pairs[positive], key[positive] % n_d
    del key, positive
    q = pairs // n_i
    col = np.searchsorted(declared, pairs) - first_intent[q]
    listed, doc_of = np.unique(q * n_d + d, return_inverse=True)
    first_doc = np.searchsorted(listed, np.arange(n_q) * n_d)
    rel = np.zeros((n_q, np.bincount(listed // n_d, minlength=n_q).max(), max(map(len, query_intents))), dtype=bool)
    rel[q, doc_of - first_doc[q], col] = True
    return IntentJudgments(qids, query_intents, docs, listed, rel, duplicate_count=duplicate_count)


def parse_run_file(path: str | Path, truncate: int | None = 50, cache: Path | None = None) -> SearchRun:
    """Parse a 6-column TREC run file in chunks of lines, keeping the top ``truncate`` docs per query, kept in the
    parse cache ``cache`` (:func:`~fairrank.store.cached`).

    Queries may interleave; each keeps its file order.  A :class:`FormatError` names the earliest line, past
    ``truncate`` too, of another width, with a rank not an int or not above its query's last, a score not finite,
    or a doc its query listed before."""
    return cached(cache, "run", path, (truncate,), _RUN_STORE, partial(_parse_run_file, path, truncate), SearchRun)


def _parse_run_file(path: str | Path, truncate: int | None) -> SearchRun:
    columns, line, pending = _read(path, "run", 6, (("qid", _ID, 0), ("doc", _ID, 2), ("rank", _RANK, 3),
                                                    ("score", _FINITE, 4)), None, error=FormatError,
                                   shape="expected 6 TREC columns, got {n}", defer=True)
    (query_ids, row), (names, d), ranks, scores = columns.values()
    query_ids, row = _ranked(query_ids, row)
    n = len(row)
    order = np.argsort(row, kind="stable")  # each query's lines, in file order
    later = order[1:][(row[order[1:]] == row[order[:-1]]) & (ranks[order[1:]] <= ranks[order[:-1]])]
    repeat = _repeat(row.astype(np.int64) * len(names) + d)
    if (at := min(later.min(initial=n), repeat[1] if repeat else n)) < n:
        where, qid = f"{path}: line {line(at)}", query_ids[row[at]]
        if at in later:
            raise FormatError(f"{where}: rank {ranks[at]} not strictly increasing for query {qid!r}")
        raise FormatError(f"{where}: duplicate doc {names[d[at]]!r} for query {qid!r}")
    if pending:
        raise pending
    row = row[order]
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    if truncate is not None:  # sliced as a list is: a negative truncate drops that many from each query's end
        keep = rank < (truncate if truncate >= 0 else np.bincount(row)[row] + truncate)
        order, row, rank = order[keep], row[keep], rank[keep]
    used, code = np.unique(d[order], return_inverse=True)
    doc_ids, code = _ranked([names[c] for c in used.tolist()], code)
    docs = np.full((len(query_ids), rank.max(initial=-1) + 1), -1)
    table = np.zeros(docs.shape)
    docs[row, rank], table[row, rank] = code, scores[order]
    return SearchRun(query_ids, doc_ids, docs, table)


def _refuse_surrogates(path: Path, kind: str, ids: Iterable[str]) -> None:
    """Raise a FormatError naming the first of ``ids`` that holds a lone surrogate, which the UTF-8 text file
    ``path`` cannot hold."""
    for bad in (x for x in ids if not x.isascii()):
        try:
            bad.encode("utf-8")
        except UnicodeEncodeError:
            raise FormatError(f"cannot write {kind} {bad!r} to {path}: it holds a lone surrogate, which UTF-8 text "
                              "cannot encode") from None


def write_run_file(run: SearchRun, path: str | Path, tag: str) -> None:
    """Write every query's ranked docs in 6-column TREC format.

    An id in the run's tables, or a tag, that is empty or holds whitespace would not read back as one column, and
    one holding a lone surrogate cannot be written as UTF-8: either is a FormatError raised before the file is
    touched.
    """
    path, ranked = Path(path), run.docs >= 0
    for kind, ids in (("query id", run.query_ids), ("doc id", run.doc_ids), ("tag", [tag])):
        for bad in (x for x in ids if x.split() != [x]):  # str.split() splits the run file's columns
            raise FormatError(f"cannot write {kind} {bad!r} to {path}: it is empty or holds whitespace and would not "
                              "read back")
        _refuse_surrogates(path, kind, ids)
    entries = zip(*(a.tolist() for a in (*np.nonzero(ranked), run.docs[ranked], run.scores[ranked])))
    lines = (f"{run.query_ids[q]} Q0 {run.doc_ids[d]} {r + 1} {s!r} {tag}\n" for q, r, d, s in entries)
    with writing(path.parent, "run file"):
        replace_file(path, "".join(lines))


# ---------------------------------------------------------------------------
# Canonical dataset directory
# ---------------------------------------------------------------------------


_FIELD_BREAKS = "\t\n\r"  # what the table readers split fields and lines on


def _write_log(path: Path, log: InteractionLog) -> None:
    users, items = map(log.user_ids.__getitem__, log.user.tolist()), map(log.item_ids.__getitem__, log.item.tolist())
    lines = map("{}\t{}\t{!r}\t{}\n".format, users, items, log.label.tolist(), log.timestamp.tolist())
    replace_file(path, "user_id\titem_id\tlabel\ttimestamp\n" + "".join(lines))


def write_dataset(dataset: SplitDataset, directory: str | Path) -> None:
    """Write a SplitDataset as versioned line-oriented tables plus a manifest.

    An id or group name that a table could not read back or that holds a lone surrogate, or a group that no item
    belongs to, is a FormatError raised before any file is written.
    """
    cat, directory = dataset.catalog, Path(directory)
    user_groups = cat.user_groups or {}
    for name, kind, ids, breaks in (("users.tsv", "user id", cat.users, _FIELD_BREAKS),
                                    ("users.tsv", "user group", user_groups.values(), _FIELD_BREAKS),
                                    ("items.tsv", "item id", cat.items, _FIELD_BREAKS),
                                    ("items.tsv", "item group", cat.group_ids, _FIELD_BREAKS + "|")):
        refuse_unreadable(directory / name, kind, ids, breaks)
        _refuse_surrogates(directory / name, kind, ids)
    for j in np.flatnonzero(~cat.member.any(axis=0))[:1]:  # items.tsv holds groups only as memberships
        raise FormatError(f"cannot write item group {cat.group_ids[j]!r} to {directory / 'items.tsv'}: no item "
                          "belongs to it, so it would not read back")
    with writing(directory, "dataset") as directory:
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

    path = directory / "users.tsv"
    columns, line, _ = _read(path, "user", 2, (("user", _ID, 0), ("group", _TEXT, 1)), header=True)
    (users, user), groups = columns.values()
    _refuse_repeats(path, user, line, lambda row: f"user {users[user[row]]!r}")
    user_groups = {user: group for user, group in zip(users, groups) if group}

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


# Each kind of binary store's members (see ``store.write_store``).  A model store holds
# ``item_bias`` exactly when its manifest says ``use_item_bias``.
_FLOATS = np.dtype(np.float64)
_ID_TABLES = {"user_ids": ("lines", 1), "item_ids": ("lines", 1)}
SCORE_STORE = {"S": (_FLOATS, 2), "valid": (np.dtype(bool), 2), **_ID_TABLES}
MODEL_STORE = {"user_vecs": (_FLOATS, 2), "item_vecs": (_FLOATS, 2), **_ID_TABLES}
BIASED_MODEL_STORE = {**MODEL_STORE, "item_bias": (_FLOATS, 1)}
# A parse-cache entry of a run file or of qrels: the constructor inputs of a SearchRun, and of an
# IntentJudgments with each query's intents joined into one table, cut by ``n_intents``.
_RUN_STORE = {"query_ids": ("lines", 1), "doc_ids": ("lines", 1), "docs": (np.dtype(np.intp), 2),
              "scores": (_FLOATS, 2)}
_QRELS_STORE = {"query_ids": ("lines", 1), "intent_ids": ("lines", 1), "n_intents": (np.dtype(np.intp), 1),
                "doc_ids": ("lines", 1), "listed": (np.dtype(np.int64), 1), "rel": (np.dtype(bool), 3),
                "duplicate_count": (np.dtype(np.int64), 0)}


def write_scores(scores: ScoreMatrix, directory: str | Path) -> None:
    """Write a ScoreMatrix as the binary store ``scores.npz`` plus the ``scores.meta.yaml`` sidecar.

    The store (:func:`write_store`) holds the members of ``SCORE_STORE``: ``S`` and
    ``valid`` are the matrix's own arrays, so users with no scored item keep their
    empty rows.  A ``scores.tsv`` in ``directory`` is removed.  An id holding a line
    break is a FormatError raised before any file is touched.
    """
    with writing(directory, "scores") as directory:
        write_store(directory / "scores.npz", SCORE_STORE, scores)
        _write_sidecar(scores, directory)
        (directory / "scores.tsv").unlink(missing_ok=True)


def write_scores_tsv(scores: ScoreMatrix, directory: str | Path) -> None:
    """Write a ScoreMatrix as the import table ``scores.tsv`` plus the sidecar, users and items in id order.

    A ``scores.npz`` in ``directory`` is removed first, as :func:`read_scores` would
    prefer it to the table.  An id the table could not read back or that holds a
    lone surrogate is a FormatError raised before any file is touched.
    """
    for kind, ids in (("user id", scores.user_ids), ("item id", scores.item_ids)):
        refuse_unreadable(Path(directory) / "scores.tsv", kind, ids, _FIELD_BREAKS)
        _refuse_surrogates(Path(directory) / "scores.tsv", kind, ids)
    with writing(directory, "scores") as directory:
        (directory / "scores.npz").unlink(missing_ok=True)
        _write_sidecar(scores, directory)
        items = scores.item_ids
        rows = ["user_id\titem_id\tscore\n"]
        for user, scored, row in zip(scores.user_ids, scores.valid, scores.S):
            cols = np.flatnonzero(scored)
            rows.append("".join(f"{user}\t{items[i]}\t{s!r}\n" for i, s in zip(cols.tolist(), row[cols].tolist())))
        replace_file(directory / "scores.tsv", "".join(rows))


def read_scores(directory: str | Path, cache: Path | None = None) -> ScoreMatrix:
    """Read back a stored ScoreMatrix: the store ``scores.npz`` when the directory holds
    one, else the table ``scores.tsv``, kept in the parse cache ``cache`` (:func:`~fairrank.store.cached`).

    The table is read as user and item codes and scores, scattered into the score
    array.  The earliest line of another width or with a score that does not convert
    is a ParseError, and after them a (user, item) pair on two lines is one naming
    both; so is a table whose distinct users times items pass ``SCORE_CELL_LIMIT``.
    The ``scores.meta.yaml`` sidecar is optional (semantics ``raw``).
    """
    directory = Path(directory)
    table = directory / "scores.tsv"
    meta = directory / "scores.meta.yaml"
    semantics = read_yaml(meta, "score sidecar", required=("semantics",))["semantics"] if meta.exists() else "raw"
    if semantics not in ("raw", "probability"):
        raise ParseError(f"{meta}: unknown score semantics {semantics!r}")
    build = lambda S, valid, user_ids, item_ids: ScoreMatrix(user_ids, item_ids, S, valid, semantics=semantics)
    if (directory / "scores.npz").exists():
        return read_store(directory / "scores.npz", "score", SCORE_STORE, build)
    return cached(cache, "scores", table, (), SCORE_STORE, partial(_read_score_table, table, semantics), build)


def _read_score_table(table: Path, semantics: str) -> ScoreMatrix:
    columns, line, _ = _read(table, "score", 3, (("user", _ID, 0), ("item", _ID, 1), ("score", _FLOAT, 2)), header=True)
    (users, rows), (items, cols), values = columns.values()
    if len(users) * len(items) > SCORE_CELL_LIMIT:
        raise ParseError(f"{table}: {len(users)} users x {len(items)} items make {len(users) * len(items)} score "
                         f"cells, more than the limit of {SCORE_CELL_LIMIT}")
    S = np.zeros((len(users), len(items)))
    valid = np.zeros(S.shape, dtype=bool)
    S[rows, cols], valid[rows, cols] = values, True
    if np.count_nonzero(valid) < len(values):
        key = rows.astype(np.int64) * len(items) + cols  # int32 times an int stays int32, and may wrap
        _refuse_repeats(table, key, line, lambda row: f"score for {(users[rows[row]], items[cols[row]])!r}")
    return ScoreMatrix(users, items, S, valid, semantics=semantics)
