"""Domain types shared by every pipeline stage, plus group-utility accounting.

Every type here is built once (by ingest, training, or a re-ranker) and then
treated as an immutable value: nothing in this package mutates a constructed
instance, which makes them safe to share across threads.  Scores have one
representation, the read-only arrays of :class:`ScoreMatrix`, which ingest,
the trainer and the synthetic generator build directly and every re-ranker
and metric reads.  A score matrix computes its ranking ``order`` on first
use; threads racing there at worst compute it twice.  Group membership has
one representation too, the read-only items x groups ``member`` table of
:class:`Catalog`.  So have slates: a :class:`RankingSlate` is a read-only
users x K array of columns of its score matrix, which every re-ranker writes
and every metric reads, with no item id looked up in between.  Interactions
have one representation as well: the id tables and read-only columns of an
:class:`InteractionLog`, from the parser through the split to the trainer
and the accuracy metrics, with no per-row object in between.  A per-group
value has one representation too: an array indexed by position in
``Catalog.group_ids`` (or, on the user axis of :func:`group_utility`, in the
sorted user-group names), from the trainer's hooks and the re-rankers'
target shares and prices to :class:`GroupUtilityVector` and the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .errors import InvariantViolation, MissingUserGroups, UnknownEntity

AXES = ("item", "user")
MODES = ("exposure", "click")


@dataclass
class Catalog:
    """Users, items, item groups, and the item -> groups membership map.

    The validating constructor also builds ``user_pos`` and ``item_pos``
    (id -> position in ``users`` and ``items``), ``group_ids`` (the groups
    in ascending id order) and ``member``, a read-only bool table of items
    (in ``items`` order) x ``group_ids``.

    Attributes:
        users: unique user identifiers.
        items: unique item identifiers.
        groups: unique item-group identifiers (non-empty).
        item_groups: item -> non-empty set of member groups.
        user_groups: optional user -> group assignment (may be partial); its
            group names are separate from the item groups.
    """

    users: list[str]
    items: list[str]
    groups: list[str]
    item_groups: dict[str, frozenset[str]]
    user_groups: dict[str, str] | None = None

    def __post_init__(self) -> None:
        for name, ids in (("users", self.users), ("items", self.items), ("groups", self.groups)):
            if len(set(ids)) != len(ids):
                raise InvariantViolation(f"duplicate identifiers in catalog {name}")
        if not self.groups:
            raise InvariantViolation("catalog declares no groups")
        self.item_groups = {item: frozenset(gs) for item, gs in self.item_groups.items()}
        declared = set(self.groups)
        item_set = set(self.items)
        missing = item_set - set(self.item_groups)
        if missing:
            raise InvariantViolation(f"items without group membership: {sorted(missing)[:5]}")
        extra = set(self.item_groups) - item_set
        if extra:
            raise InvariantViolation(f"item_groups references undeclared items: {sorted(extra)[:5]}")
        for item, gs in self.item_groups.items():
            if not gs:
                raise InvariantViolation(f"item {item!r} belongs to no group")
            if not gs <= declared:
                raise InvariantViolation(f"item {item!r} references undeclared groups {sorted(gs - declared)}")
        user_set = set(self.users)
        for user in [u for u in self.user_groups or () if u not in user_set][:1]:
            raise InvariantViolation(f"user_groups references undeclared user {user!r}")
        self.user_pos = {user: u for u, user in enumerate(self.users)}
        self.item_pos = {item: i for i, item in enumerate(self.items)}
        self.group_ids = sorted(self.groups)
        group_pos = {g: j for j, g in enumerate(self.group_ids)}
        self.member = np.zeros((len(self.items), len(self.group_ids)), dtype=bool)
        for i, item in enumerate(self.items):
            self.member[i, [group_pos[g] for g in self.item_groups[item]]] = True
        self.member.flags.writeable = False


def positions(ids: Sequence[str], pos: Mapping[str, int]) -> np.ndarray:
    """Each of ``ids``' position in ``pos``, -1 where it has none."""
    return np.fromiter(map(pos.get, ids, repeat(-1)), np.intp, len(ids))


def sequential_sum(a) -> np.ndarray:
    """``a`` summed along its last axis from 0.0, one element at a time in order (``np.sum`` and ``@`` add pairwise)."""
    a = np.asarray(a, dtype=float)
    return np.cumsum(np.concatenate([np.zeros((*a.shape[:-1], 1)), a], axis=-1), axis=-1)[..., -1]


class InteractionLog:
    """Observed (user, item) events in file order, held as read-only columns.

    ``user_ids`` and ``item_ids`` are tables of distinct ids.  Row ``r`` is
    user ``user_ids[user[r]]``'s event on item ``item_ids[item[r]]``, with a
    ``label[r]`` in [0, 5] and an int64 ``timestamp[r]``.  A split inside a
    :class:`~fairrank.ingest.SplitDataset` indexes its catalog's own
    ``users`` and ``items`` tables.  ``relevant`` is computed on first use.
    """

    COLUMNS = ("user", "item", "label", "timestamp")

    def __init__(self, user_ids: Sequence[str], item_ids: Sequence[str], user, item, label, timestamp) -> None:
        self.user_ids, self.item_ids = list(user_ids), list(item_ids)
        self.user, self.item = (np.array(column, dtype=np.intp).reshape(-1) for column in (user, item))
        self.label = np.array(label, dtype=float).reshape(-1)
        self.timestamp = np.array(timestamp, dtype=np.int64).reshape(-1)
        if not (
            len(set(self.user_ids)) == len(self.user_ids) and len(set(self.item_ids)) == len(self.item_ids)
            and len(self.user) == len(self.item) == len(self.label) == len(self.timestamp)
            and self.user.min(initial=0) >= 0 and self.user.max(initial=-1) < len(self.user_ids)
            and self.item.min(initial=0) >= 0 and self.item.max(initial=-1) < len(self.item_ids)
        ):
            raise InvariantViolation("a log holds distinct ids, then equal-length columns pointing into them")
        for r in np.flatnonzero(~((self.label >= 0.0) & (self.label <= 5.0)))[:1]:  # NaN fails both
            raise InvariantViolation(f"label {float(self.label[r])} outside [0, 5]")
        for c in self.COLUMNS:
            getattr(self, c).flags.writeable = False

    def take(self, rows) -> InteractionLog:
        """The log of the rows at ``rows``, in that order, over the same id tables."""
        return InteractionLog(self.user_ids, self.item_ids, *(getattr(self, c)[rows] for c in self.COLUMNS))

    def onto(self, catalog: Catalog) -> InteractionLog:
        """This log over ``catalog.users`` and ``catalog.items``; the first row whose user or item the catalog
        lacks is an :class:`UnknownEntity`."""
        if (self.user_ids, self.item_ids) == (catalog.users, catalog.items):
            return self
        user = positions(self.user_ids, catalog.user_pos)[self.user]
        item = positions(self.item_ids, catalog.item_pos)[self.item]
        for r in np.flatnonzero((user < 0) | (item < 0))[:1]:
            kind, ids, at = ("user", self.user_ids, self.user) if user[r] < 0 else ("item", self.item_ids, self.item)
            raise UnknownEntity(f"{kind} {ids[at[r]]!r} not in catalog")
        return InteractionLog(catalog.users, catalog.items, user, item, self.label, self.timestamp)

    @cached_property
    def relevant(self) -> np.ndarray:
        """Read-only (users + 1) x (items + 1) bool table, True where the user has an event with a label above 0
        on the item; the last row and column, which -1 indexes, stay False."""
        table = np.zeros((len(self.user_ids) + 1, len(self.item_ids) + 1), dtype=bool)
        positive = self.label > 0.0
        table[self.user[positive], self.item[positive]] = True
        table.flags.writeable = False
        return table

    def __len__(self) -> int:
        return len(self.label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InteractionLog):
            return NotImplemented
        same_ids = (self.user_ids, self.item_ids) == (other.user_ids, other.item_ids)
        return same_ids and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.COLUMNS)


class ScoreMatrix:
    """Per-user candidate relevance scores, held as read-only arrays.

    ``user_ids`` and ``item_ids`` are in ascending id order, with position
    maps ``user_pos`` and ``item_pos``.  The item table holds only items
    that some user scored; a user with no scored item keeps an empty row, so
    candidate sets may differ between users (e.g. after excluding training
    items).  ``S`` is -inf where a user has no score for an item, ``valid``
    marks the scored entries and ``n_valid`` counts them per user.
    ``order`` ranks each row's items by (score desc, item id asc), unscored
    last; it is computed on first use and kept with the matrix, so every
    re-ranker and metric run on one matrix shares it.

    Attributes:
        semantics: ``"raw"`` for unbounded model scores, ``"probability"``
            for calibrated click probabilities in [0, 1].
    """

    def __init__(self, user_ids: Sequence[str], item_ids: Sequence[str], scores, valid=None, semantics: str = "raw") -> None:
        """``scores[u, i]`` is user ``u``'s score of item ``i`` where ``valid`` is set (default: everywhere)."""
        if semantics not in ("raw", "probability"):
            raise InvariantViolation(f"unknown score semantics {semantics!r}")
        user_ids, item_ids = list(user_ids), list(item_ids)
        scores = np.asarray(scores, dtype=float)
        valid = np.ones(scores.shape, dtype=bool) if valid is None else np.asarray(valid, dtype=bool)
        if not scores.shape == valid.shape == (len(user_ids), len(item_ids)):
            raise InvariantViolation("score array shape does not match the user and item ids")
        if len(set(user_ids)) < len(user_ids) or len(set(item_ids)) < len(item_ids):
            raise InvariantViolation("duplicate user or item ids in score matrix")
        for u, i in np.argwhere(valid & ~np.isfinite(scores))[:1]:
            raise InvariantViolation(f"non-finite score for ({user_ids[u]!r}, {item_ids[i]!r})")
        if semantics == "probability":
            for u, i in np.argwhere(valid & ((scores < 0.0) | (scores > 1.0)))[:1]:
                raise InvariantViolation(f"probability score {scores[u, i]} outside [0, 1]")
        self.semantics = semantics
        rows = sorted(range(len(user_ids)), key=user_ids.__getitem__)
        cols = sorted(np.flatnonzero(valid.any(axis=0)).tolist(), key=item_ids.__getitem__)
        self.user_ids, self.item_ids = [user_ids[u] for u in rows], [item_ids[i] for i in cols]
        self.user_pos = {user: u for u, user in enumerate(self.user_ids)}
        self.item_pos = {item: i for i, item in enumerate(self.item_ids)}
        self.valid = valid[np.ix_(rows, cols)]
        self.S = np.where(self.valid, scores[np.ix_(rows, cols)], -np.inf)
        self.n_valid = self.valid.sum(axis=1)
        for array in (self.S, self.valid, self.n_valid):
            array.flags.writeable = False

    @cached_property
    def order(self) -> np.ndarray:
        order = np.argsort(-self.S, axis=1, kind="stable")
        order.flags.writeable = False
        return order

    def users(self) -> list[str]:
        return list(self.user_ids)

    def row(self, user: str) -> dict[str, float]:
        """``user``'s scores by item id."""
        if user not in self.user_pos:
            raise UnknownEntity(f"user {user!r} not in score matrix")
        cols = np.flatnonzero(self.valid[self.user_pos[user]])
        return dict(zip([self.item_ids[i] for i in cols.tolist()], self.S[self.user_pos[user], cols].tolist()))

    def validate_against(self, catalog: Catalog) -> None:
        for kind, ids, known in (("user", self.user_ids, catalog.user_pos), ("item", self.item_ids, catalog.item_pos)):
            unknown = [x for x in ids if x not in known]
            if unknown:
                raise UnknownEntity(f"{kind} {unknown[0]!r} not in catalog")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreMatrix):
            return NotImplemented
        same_ids = (self.user_ids, self.item_ids) == (other.user_ids, other.item_ids)
        return self.semantics == other.semantics and same_ids and np.array_equal(self.S, other.S)


@dataclass(eq=False)
class RankingSlate:
    """Every user's ordered top-K, as columns of the score matrix it was built on.

    ``slates`` is a read-only users x K int array: row ``u`` holds the slate
    of ``scores.user_ids[u]`` in rank order, -1 marking an empty slot (the
    re-rankers fill each row's first ``min(K, n_valid)``).  The constructor
    checks it once for every metric: K >= 1, the users x K shape (at most K
    items a row), no duplicate in a row, every other entry a scored item of
    its user (:class:`UnknownEntity`).  ``meta`` carries algorithm diagnostics.
    """

    k: int
    slates: np.ndarray
    scores: ScoreMatrix
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvariantViolation("slate size K must be positive")
        users, n_items = self.scores.user_ids, len(self.scores.item_ids)
        slates = np.array(self.slates, dtype=np.intp)
        if slates.shape != (len(users), self.k):
            raise InvariantViolation(f"slates of shape {slates.shape} are not users x K = {(len(users), self.k)}")
        rows, cols = np.nonzero(slates != -1)[0], slates[slates != -1]
        scored = (cols >= 0) & (cols < n_items)
        scored[scored] = self.scores.valid[rows[scored], cols[scored]]
        for u, i in zip(rows[~scored][:1], cols[~scored][:1]):
            item = self.scores.item_ids[i] if 0 <= i < n_items else f"column {i}"
            raise UnknownEntity(f"no score for ({users[u]!r}, {item!r})")
        ordered = np.sort(slates, axis=1)
        for u in np.flatnonzero(((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] >= 0)).any(axis=1))[:1]:
            raise InvariantViolation(f"duplicate item in slate of user {users[u]!r}")
        slates.flags.writeable = False
        self.slates = slates


@dataclass(eq=False)
class GroupUtilityVector:
    """Utility accumulated per group from a set of slates.

    ``axis`` selects whether utility is credited to item groups or to the
    group of the receiving user; ``mode`` selects unit exposure vs. clamped
    click-probability weights.  ``values`` is a read-only array whose entry
    ``j`` is the utility of group ``group_ids[j]``.
    """

    axis: str
    mode: str
    group_ids: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise InvariantViolation(f"unknown axis {self.axis!r}")
        if self.mode not in MODES:
            raise InvariantViolation(f"unknown mode {self.mode!r}")
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (len(self.group_ids),):
            raise InvariantViolation("utility values do not match the group ids")
        for j in np.flatnonzero(self.values < 0)[:1]:
            raise InvariantViolation(f"negative utility for group {self.group_ids[j]!r}")
        self.values.flags.writeable = False


def group_utility(
    slates: RankingSlate, catalog: Catalog, axis: str = "item", mode: str = "exposure"
) -> GroupUtilityVector:
    """Accumulate per-group utility from the given slates.

    Exposure mode credits one unit per slate slot; click mode credits the
    slate's score clamped into [0, 1].  On the item axis each member group
    of a slotted item (its catalog ``member`` row) receives the full weight;
    on the user axis the weight goes to the group of the slate's user (users
    absent from ``user_groups`` contribute nothing), over the sorted distinct
    names of ``user_groups``.

    Summation order is fixed, so results are bit-reproducible: each user's
    weights add rank by rank (an uncredited slot adds an exact ``+0.0``),
    then the users one at a time in ascending id order.
    """
    if axis not in AXES:
        raise InvariantViolation(f"unknown axis {axis!r}")
    if mode not in MODES:
        raise InvariantViolation(f"unknown mode {mode!r}")
    if axis == "user" and not catalog.user_groups:
        raise MissingUserGroups("user-axis utility requires catalog.user_groups")

    scores, cols = slates.scores, slates.slates
    taken = cols >= 0
    users, items = np.nonzero(taken)[0], cols[taken]  # row-major: ascending user, then rank
    rows = positions(scores.item_ids, catalog.item_pos)[items]
    for i in items[rows < 0][:1]:
        raise UnknownEntity(f"item {scores.item_ids[i]!r} not in catalog")
    weight = np.clip(scores.S[users, items], 0.0, 1.0) if mode == "click" else np.ones(len(items))
    if axis == "item":
        group_ids, member = catalog.group_ids, catalog.member[rows]
    else:
        group_ids = sorted(set(catalog.user_groups.values()))
        owner = np.array([catalog.user_groups.get(user) for user in scores.user_ids], dtype=object)
        member = owner[users, None] == np.array(group_ids, dtype=object)
    credit = np.zeros((*cols.shape, len(group_ids)))  # each slot's weight for the groups it credits, else 0.0
    credit[taken] = member * weight[:, None]
    per_user = np.zeros((len(group_ids), len(cols)))  # groups x users
    for r in range(cols.shape[1]):
        per_user += credit[:, r].T
    # Users are added one at a time in ascending id order.
    return GroupUtilityVector(axis, mode, group_ids, sequential_sum(per_user))
