"""Shared fixtures and instance generators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from fairrank.core import Catalog, ScoreMatrix
from fairrank.ingest import IntentJudgments, QueryJudgments, RunList

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
    matrix = ScoreMatrix(
        {
            u: {it: float(scores[ui, ii]) for ii, it in enumerate(items) if scored[ui, ii]}
            for ui, u in enumerate(users)
        }
    )
    return catalog, matrix


def full_coverage_instance(rng: np.random.Generator, n_users: int, n_items: int, n_groups: int):
    """Instance where every group owns n_items / n_groups items (round robin)."""
    users = [f"u{i:03d}" for i in range(n_users)]
    items = [f"i{i:03d}" for i in range(n_items)]
    groups = [f"g{i}" for i in range(n_groups)]
    item_groups = {item: frozenset({groups[ii % n_groups]}) for ii, item in enumerate(items)}
    catalog = Catalog(users=users, items=items, groups=groups, item_groups=item_groups)
    scores = rng.uniform(0.01, 1.0, size=(n_users, n_items))
    matrix = ScoreMatrix(
        {u: {it: float(scores[ui, ii]) for ii, it in enumerate(items)} for ui, u in enumerate(users)}
    )
    return catalog, matrix


def make_judgments(doc_intents: dict[str, set[str]], intents: list[str]) -> QueryJudgments:
    prior = 1.0 / len(intents)
    return QueryJudgments(
        intents=sorted(intents),
        priors={i: prior for i in sorted(intents)},
        doc_intents={d: frozenset(s) for d, s in doc_intents.items() if s},
    )


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
    judg = make_judgments(doc_intents, intents)
    scores = sorted((float(s) for s in rng.uniform(0.0, 1.0, size=n_docs)), reverse=True)
    run = RunList(queries={"q1": list(zip(docs, scores))})
    return run, IntentJudgments(queries={"q1": judg})


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
