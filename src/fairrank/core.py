"""Domain types shared by every pipeline stage, plus group-utility accounting.

Every type here is built once (by ingest, training, or a re-ranker) and then
treated as an immutable value: nothing in this package mutates a constructed
instance, which makes them safe to share across threads.  A score matrix
caches its read-only array view on first use; threads racing there at worst
build the same view twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import InvariantViolation, MissingUserGroups, UnknownEntity

AXES = ("item", "user")
MODES = ("exposure", "click")


@dataclass
class Catalog:
    """Users, items, groups, and the item -> groups membership map.

    Attributes:
        users: unique user identifiers.
        items: unique item identifiers.
        groups: unique group identifiers (non-empty).
        item_groups: item -> non-empty set of member groups.
        user_groups: optional user -> group assignment (may be partial).
        user_attrs: optional per-user attribute maps (profile data).
        item_attrs: optional per-item attribute maps.
    """

    users: list[str]
    items: list[str]
    groups: list[str]
    item_groups: dict[str, frozenset[str]]
    user_groups: dict[str, str] | None = None
    user_attrs: dict[str, dict] | None = None
    item_attrs: dict[str, dict] | None = None

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
        if self.user_groups is not None:
            if not set(self.user_groups) <= set(self.users):
                raise InvariantViolation("user_groups references undeclared users")
            if not set(self.user_groups.values()) <= declared:
                raise InvariantViolation("user_groups references undeclared groups")
        self._user_set = frozenset(self.users)
        self._item_set = frozenset(self.items)

    def has_user(self, user: str) -> bool:
        return user in self._user_set

    def has_item(self, item: str) -> bool:
        return item in self._item_set

    def groups_of(self, item: str) -> frozenset[str]:
        try:
            return self.item_groups[item]
        except KeyError:
            raise UnknownEntity(f"item {item!r} not in catalog") from None


@dataclass
class Interaction:
    """One observed (user, item) event with a label and a timestamp."""

    user: str
    item: str
    label: float
    timestamp: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.label <= 5.0):
            raise InvariantViolation(f"label {self.label} outside [0, 5]")


@dataclass
class InteractionLog:
    """A sequence of interactions in file order.

    File order is preserved; the chronological per-user view is obtained via
    :meth:`per_user_chronological`, which sorts stably by timestamp so ties
    keep file order.
    """

    records: list[Interaction]

    def users(self) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.user, None)
        return list(seen)

    def items(self) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.item, None)
        return list(seen)

    def per_user(self) -> dict[str, list[Interaction]]:
        out: dict[str, list[Interaction]] = {}
        for rec in self.records:
            out.setdefault(rec.user, []).append(rec)
        return out

    def per_user_chronological(self) -> dict[str, list[Interaction]]:
        out = self.per_user()
        return {u: sorted(recs, key=lambda r: r.timestamp) for u, recs in out.items()}

    def validate_against(self, catalog: Catalog) -> None:
        for rec in self.records:
            if not catalog.has_user(rec.user):
                raise UnknownEntity(f"user {rec.user!r} not in catalog")
            if not catalog.has_item(rec.item):
                raise UnknownEntity(f"item {rec.item!r} not in catalog")

    def __len__(self) -> int:
        return len(self.records)


class DenseScores:
    """Read-only array view of score rows (``user -> {item: score}``).

    Users and items are in ascending id order.  ``S`` is -inf where a user
    has no score for an item, ``valid`` marks the scored entries and
    ``n_valid`` counts them per user.  ``order`` ranks each row's items by
    (score desc, item id asc), unscored last; it is computed on first use.
    """

    def __init__(self, rows: Mapping[str, Mapping[str, float]]) -> None:
        self.users = sorted(rows)
        self.items = sorted(set().union(*rows.values()))
        self.user_pos = {user: i for i, user in enumerate(self.users)}
        item_pos = {item: i for i, item in enumerate(self.items)}
        self.S = np.full((len(self.users), len(self.items)), -np.inf)
        for ui, user in enumerate(self.users):
            row = rows[user]
            cols = np.fromiter(map(item_pos.__getitem__, row), np.intp, len(row))
            self.S[ui, cols] = np.fromiter(row.values(), float, len(row))
        self.valid = np.isfinite(self.S)
        self.n_valid = self.valid.sum(axis=1)
        for array in (self.S, self.valid, self.n_valid):
            array.flags.writeable = False

    @cached_property
    def order(self) -> np.ndarray:
        order = np.argsort(-self.S, axis=1, kind="stable")
        order.flags.writeable = False
        return order


class ScoreMatrix:
    """Per-user candidate relevance scores.

    Rows are stored as ``user -> {item: score}``; row candidate sets may
    differ between users (e.g. after excluding training items).  The array
    view from :meth:`dense` is built on first use and kept with the matrix,
    so every re-ranker and metric run on one matrix shares it.

    Attributes:
        semantics: ``"raw"`` for unbounded model scores, ``"probability"``
            for calibrated click probabilities in [0, 1].
    """

    def __init__(self, rows: Mapping[str, Mapping[str, float]], semantics: str = "raw") -> None:
        if semantics not in ("raw", "probability"):
            raise InvariantViolation(f"unknown score semantics {semantics!r}")
        self.semantics = semantics
        self._rows: dict[str, dict[str, float]] = {}
        for user, row in rows.items():
            clean: dict[str, float] = {}
            for item, score in row.items():
                s = float(score)
                if not np.isfinite(s):
                    raise InvariantViolation(f"non-finite score for ({user!r}, {item!r})")
                if semantics == "probability" and not (0.0 <= s <= 1.0):
                    raise InvariantViolation(f"probability score {s} outside [0, 1]")
                clean[item] = s
            self._rows[user] = clean
        self._dense: DenseScores | None = None

    def users(self) -> list[str]:
        return list(self._rows)

    def row(self, user: str) -> dict[str, float]:
        try:
            return self._rows[user]
        except KeyError:
            raise UnknownEntity(f"user {user!r} not in score matrix") from None

    def item_score(self, user: str, item: str) -> float:
        row = self.row(user)
        try:
            return row[item]
        except KeyError:
            raise UnknownEntity(f"no score for ({user!r}, {item!r})") from None

    def has(self, user: str, item: str) -> bool:
        return user in self._rows and item in self._rows[user]

    def dense(self) -> DenseScores:
        """The array view of this matrix (see :class:`DenseScores`)."""
        if self._dense is None:
            self._dense = DenseScores(self._rows)
        return self._dense

    def validate_against(self, catalog: Catalog) -> None:
        view = self.dense()
        for user in view.users:
            if not catalog.has_user(user):
                raise UnknownEntity(f"user {user!r} not in catalog")
        for item in view.items:
            if not catalog.has_item(item):
                raise UnknownEntity(f"item {item!r} not in catalog")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreMatrix):
            return NotImplemented
        return self.semantics == other.semantics and self._rows == other._rows

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class RankingSlate:
    """Per-user ordered top-K item lists.

    ``meta`` carries algorithm diagnostics (e.g. achieved exposure floors,
    duality gaps) and is excluded from equality comparisons.
    """

    k: int
    slates: dict[str, list[str]]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvariantViolation("slate size K must be positive")
        for user, items in self.slates.items():
            if len(set(items)) != len(items):
                raise InvariantViolation(f"duplicate item in slate of user {user!r}")
            if len(items) > self.k:
                raise InvariantViolation(f"slate of user {user!r} longer than K={self.k}")


@dataclass
class GroupUtilityVector:
    """Utility accumulated per group from a set of slates.

    ``axis`` selects whether utility is credited to item groups or to the
    group of the receiving user; ``mode`` selects unit exposure vs. clamped
    click-probability weights.
    """

    axis: str
    mode: str
    values: dict[str, float]
    total: float

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise InvariantViolation(f"unknown axis {self.axis!r}")
        if self.mode not in MODES:
            raise InvariantViolation(f"unknown mode {self.mode!r}")
        for g, v in self.values.items():
            if v < 0:
                raise InvariantViolation(f"negative utility for group {g!r}")
        if abs(self.total - sum(self.values.values())) > 1e-6:
            raise InvariantViolation("total does not match the sum of group utilities")

    @classmethod
    def from_values(cls, axis: str, mode: str, values: Mapping[str, float]) -> "GroupUtilityVector":
        vals = dict(values)
        return cls(axis=axis, mode=mode, values=vals, total=float(sum(vals.values())))

    def as_array(self) -> np.ndarray:
        """Utilities in ascending group-id order."""
        return np.array([self.values[g] for g in sorted(self.values)], dtype=float)


@dataclass
class DualState:
    """Group prices on the budget-scaled simplex used by online dual updates.

    Invariant: prices are non-negative and sum to ``budget`` (a zero budget
    forces all prices to zero).  ``step`` is the multiplicative-update rate.
    """

    budget: float
    prices: dict[str, float]
    step: float

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise InvariantViolation("dual budget must be non-negative")
        if self.step <= 0:
            raise InvariantViolation("dual step size must be positive")

    @classmethod
    def uniform(cls, budget: float, groups: Sequence[str], step: float) -> "DualState":
        n = len(groups)
        if n == 0:
            raise InvariantViolation("dual state needs at least one group")
        price = budget / n if budget > 0 else 0.0
        return cls(budget=budget, prices={g: price for g in groups}, step=step)

    def validate(self, tol: float = 1e-9) -> None:
        total = sum(self.prices.values())
        if abs(total - self.budget) > tol:
            raise InvariantViolation(f"prices sum {total} != budget {self.budget}")
        for g, p in self.prices.items():
            if p < 0:
                raise InvariantViolation(f"negative price for group {g!r}")
        if self.budget == 0 and any(p != 0.0 for p in self.prices.values()):
            raise InvariantViolation("zero budget requires all-zero prices")

    def exp_step(self, gradient: Mapping[str, float], ascent: bool) -> "DualState":
        """One multiplicative-weights update, rescaled back onto the simplex.

        ``ascent=True`` grows the price of groups with positive gradient,
        ``ascent=False`` shrinks it.  A zero budget is a fixed point.
        """
        if self.budget == 0:
            return self
        sign = 1.0 if ascent else -1.0
        raw = {g: p * float(np.exp(sign * self.step * gradient.get(g, 0.0))) for g, p in self.prices.items()}
        total = sum(raw.values())
        if total <= 0:
            # All mass vanished (cannot happen while prices stay positive); reset uniform.
            n = len(raw)
            prices = {g: self.budget / n for g in raw}
        else:
            scale = self.budget / total
            prices = {g: v * scale for g, v in raw.items()}
        out = DualState(budget=self.budget, prices=prices, step=self.step)
        out.validate(tol=1e-6)
        return out


def _slot_weight(mode: str, scores: ScoreMatrix | None, user: str, item: str) -> float:
    if mode == "exposure":
        return 1.0
    if scores is None:
        raise UnknownEntity("click mode requires a score matrix")
    s = scores.item_score(user, item)
    return min(max(s, 0.0), 1.0)


def group_utility(
    slates: RankingSlate,
    scores: ScoreMatrix | None,
    catalog: Catalog,
    axis: str = "item",
    mode: str = "exposure",
) -> GroupUtilityVector:
    """Accumulate per-group utility from the given slates.

    Exposure mode credits one unit per slate slot; click mode credits the
    score clamped into [0, 1].  On the item axis each member group of a
    slotted item receives the full weight; on the user axis the weight goes
    to the group of the slate's user (users absent from ``user_groups``
    contribute nothing).

    Summation order is fixed (group id order, then user id order) so results
    are bit-reproducible.
    """
    if axis not in AXES:
        raise InvariantViolation(f"unknown axis {axis!r}")
    if mode not in MODES:
        raise InvariantViolation(f"unknown mode {mode!r}")
    if axis == "user" and catalog.user_groups is None:
        raise MissingUserGroups("user-axis utility requires catalog.user_groups")

    per_group: dict[str, dict[str, float]] = {g: {} for g in catalog.groups}
    for user in sorted(slates.slates):
        for item in slates.slates[user]:
            member_groups = catalog.groups_of(item)
            w = _slot_weight(mode, scores, user, item)
            if axis == "item":
                for g in member_groups:
                    bucket = per_group[g]
                    bucket[user] = bucket.get(user, 0.0) + w
            else:
                g = catalog.user_groups.get(user)  # type: ignore[union-attr]
                if g is None:
                    continue
                bucket = per_group[g]
                bucket[user] = bucket.get(user, 0.0) + w

    values: dict[str, float] = {}
    for g in sorted(catalog.groups):
        bucket = per_group[g]
        values[g] = float(sum(bucket[u] for u in sorted(bucket)))
    return GroupUtilityVector.from_values(axis=axis, mode=mode, values=values)


def utility_evenness_gap(v: GroupUtilityVector) -> float:
    """Spread between the best- and worst-off group; 0 iff perfectly even."""
    vals = list(v.values.values())
    if not vals:
        raise InvariantViolation("utility vector has no groups")
    return max(vals) - min(vals)
