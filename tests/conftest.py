"""Shared fixtures and instance generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fairrank.core import Catalog, RankingSlate, ScoreMatrix
from fairrank.ingest import IntentJudgments
from reference_diverse import Query, judgments_of, run_of

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


def make_catalog(item_groups: dict[str, set[str]], users: list[str], user_groups=None) -> Catalog:
    groups = sorted({g for gs in item_groups.values() for g in gs})
    if user_groups:
        groups = sorted(set(groups) | set(user_groups.values()))
    return Catalog(
        users=users,
        items=sorted(item_groups),
        groups=groups,
        item_groups={i: frozenset(gs) for i, gs in item_groups.items()},
        user_groups=user_groups,
    )


def with_bad_line_2(path) -> None:
    """Put bytes that are not UTF-8 at the start of line 2 of ``path``."""
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n\xff\xfe" + rest)


def random_instance(rng: np.random.Generator, n_users: int, n_items: int, n_groups: int, tie_heavy: bool = False):
    """Random catalog + non-negative score matrix.

    By default items belong to one group, every user scores every item and
    scores are distinct.  ``tie_heavy`` rounds scores to one decimal, gives
    items up to three groups and lets each user score as few as one item,
    so slates meet score ties, shared group sets and rows shorter than K.
    """
    users = [f"u{i:03d}" for i in range(n_users)]
    items = [f"i{i:03d}" for i in range(n_items)]
    groups = [f"g{i}" for i in range(n_groups)]
    item_groups = {item: frozenset({groups[int(rng.integers(0, n_groups))]}) for item in items}
    if tie_heavy:
        for item in items:
            extra = rng.integers(0, n_groups, size=int(rng.integers(0, 3)))
            item_groups[item] |= {groups[int(g)] for g in extra}
    # Ensure every group owns at least one item.
    for gi, g in enumerate(groups):
        item_groups[items[gi % n_items]] = frozenset({g})
    catalog = Catalog(users=users, items=items, groups=groups, item_groups=item_groups)
    scores = rng.uniform(0.01, 1.0, size=(n_users, n_items))
    scored = np.ones((n_users, n_items), dtype=bool)
    if tie_heavy:
        scores = np.round(scores, 1)
        sizes = rng.integers(1, n_items + 1, size=(n_users, 1))
        scored = rng.random((n_users, n_items)).argsort(axis=1) < sizes
    return catalog, ScoreMatrix(users, items, scores, scored)


def full_coverage_instance(rng: np.random.Generator, n_users: int, n_items: int, n_groups: int):
    """Instance where every group owns n_items / n_groups items (round robin)."""
    users = [f"u{i:03d}" for i in range(n_users)]
    items = [f"i{i:03d}" for i in range(n_items)]
    groups = [f"g{i}" for i in range(n_groups)]
    item_groups = {item: frozenset({groups[ii % n_groups]}) for ii, item in enumerate(items)}
    catalog = Catalog(users=users, items=items, groups=groups, item_groups=item_groups)
    scores = rng.uniform(0.01, 1.0, size=(n_users, n_items))
    return catalog, ScoreMatrix(users, items, scores)


def score_matrix(rows: dict[str, dict[str, float]], semantics: str = "raw") -> ScoreMatrix:
    """A ScoreMatrix from ``user -> {item: score}`` rows (a user may have an empty row)."""
    users = list(rows)
    items = sorted({item for row in rows.values() for item in row})
    pos = {item: i for i, item in enumerate(items)}
    scores = np.zeros((len(users), len(items)))
    valid = np.zeros(scores.shape, dtype=bool)
    for u, row in enumerate(rows.values()):
        cols = [pos[item] for item in row]
        scores[u, cols] = list(row.values())
        valid[u, cols] = True
    return ScoreMatrix(users, items, scores, valid, semantics=semantics)


def slate_of(k: int, rows: dict[str, list[str]], scores: ScoreMatrix | None = None) -> RankingSlate:
    """A RankingSlate from ``user -> item ids`` in rank order.

    Without ``scores`` the slate is built on a matrix in which each listed
    user scores each of its listed items 1.0.  Users of the matrix missing
    from ``rows`` get empty slates; a row longer than ``k`` widens the array
    past K, which the constructor rejects.
    """
    if scores is None:
        scores = score_matrix({user: dict.fromkeys(items, 1.0) for user, items in rows.items()})
    cols = np.full((len(scores.user_ids), max([k, *map(len, rows.values())])), -1)
    for user, items in rows.items():
        cols[scores.user_pos[user], : len(items)] = [scores.item_pos[item] for item in items]
    return RankingSlate(k, cols, scores)


def make_judgments(doc_intents: dict[str, set[str]], intents: list[str], qid: str = "q1") -> IntentJudgments:
    """Judgments of one query with uniform priors, built through the ``IntentJudgments`` constructor."""
    return judgments_of({qid: Query.uniform(doc_intents, intents)})


def random_diversity_instance(rng: np.random.Generator, max_docs: int = 8, max_intents: int = 4):
    """Random single-query run + judgments for oracle-equivalence tests."""
    n_docs = int(rng.integers(2, max_docs + 1))
    n_intents = int(rng.integers(1, max_intents + 1))
    docs = [f"d{i}" for i in range(n_docs)]
    intents = [f"t{i}" for i in range(n_intents)]
    doc_intents = {}
    for d in docs:
        member = {i for i in intents if rng.random() < 0.5}
        if member:
            doc_intents[d] = member
    scores = sorted((float(s) for s in rng.uniform(0.0, 1.0, size=n_docs)), reverse=True)
    run = run_of({"q1": list(zip(docs, scores))})
    return run, make_judgments(doc_intents, intents)


@pytest.fixture
def tiny_catalog() -> Catalog:
    return make_catalog(
        {"i1": {"g1"}, "i2": {"g2"}, "i3": {"g1", "g2"}},
        users=["u1", "u2"],
        user_groups={"u1": "g1", "u2": "g2"},
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
