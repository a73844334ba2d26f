"""Synthetic dataset and score generation for demos, tests, and benchmarks.

The generator plants a simple preference structure: every user favours one
item group, interactions are sampled proportionally to that affinity, and
stored scores are the affinity plus noise.  ``init_workspace`` writes a
ready-to-run data root (canonical dataset, stored scores, dataset config)
for the CLI.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
import yaml

from .core import Catalog, InteractionLog, ScoreMatrix
from .ingest import SplitDataset, filter_and_split, write_dataset, write_scores_tsv


def _uid(i: int) -> str:
    return f"u{i:05d}"


def _iid(i: int) -> str:
    return f"i{i:05d}"


def _gid(i: int) -> str:
    return f"g{i:03d}"


def synthetic_catalog(
    n_users: int,
    n_items: int,
    n_groups: int,
    rng: np.random.Generator,
    multi_group_prob: float = 0.0,
) -> Catalog:
    """Catalog with round-robin group membership and random user groups."""
    users = [_uid(i) for i in range(n_users)]
    items = [_iid(i) for i in range(n_items)]
    groups = [_gid(i) for i in range(n_groups)]
    item_groups: dict[str, frozenset[str]] = {}
    for j, item in enumerate(items):
        members = {groups[j % n_groups]}
        if multi_group_prob > 0 and rng.random() < multi_group_prob:
            members.add(groups[int(rng.integers(0, n_groups))])
        item_groups[item] = frozenset(members)
    user_groups = {u: groups[int(rng.integers(0, n_groups))] for u in users}
    return Catalog(users=users, items=items, groups=groups, item_groups=item_groups, user_groups=user_groups)


def _affinity(catalog: Catalog, rng: np.random.Generator, strength: float) -> np.ndarray:
    """Planted user x item affinity in (0, 1): preferred-group items score higher."""
    n_users, n_items = len(catalog.users), len(catalog.items)
    pref = rng.integers(0, len(catalog.group_ids), size=n_users)
    base = rng.uniform(0.05, 0.6, size=(n_users, n_items))
    boost = strength * catalog.member[:, pref].T
    return np.clip(base + boost, 0.01, 0.99)


def synthetic_scores(catalog: Catalog, rng: np.random.Generator, strength: float = 0.35, noise: float = 0.05) -> ScoreMatrix:
    """Positive per-user scores correlated with the planted preferences."""
    aff = _affinity(catalog, rng, strength)
    noisy = np.clip(aff + rng.normal(0.0, noise, size=aff.shape), 0.001, 1.0)
    return ScoreMatrix(catalog.users, catalog.items, noisy, semantics="probability")


def synthetic_interactions(
    catalog: Catalog,
    rng: np.random.Generator,
    per_user: tuple[int, int] = (10, 20),
    strength: float = 0.35,
) -> InteractionLog:
    """Sample interactions proportional to the planted affinity, timestamps increasing."""
    aff = _affinity(catalog, rng, strength)
    n_items = len(catalog.items)
    chosen = [np.empty(0, dtype=np.intp)]
    for ui in range(len(catalog.users)):
        count = min(int(rng.integers(per_user[0], per_user[1] + 1)), n_items)
        chosen.append(rng.choice(n_items, size=count, replace=False, p=aff[ui] / aff[ui].sum()))
    user = np.repeat(np.arange(len(chosen) - 1), [len(c) for c in chosen[1:]])
    item = np.concatenate(chosen)
    return InteractionLog(catalog.users, catalog.items, user, item, np.ones(len(item)), np.arange(1, len(item) + 1))


def synthetic_dataset(
    n_users: int = 100,
    n_items: int = 100,
    n_groups: int = 5,
    seed: int = 42,
    per_user: tuple[int, int] = (10, 20),
    min_interactions: int = 5,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> tuple[SplitDataset, ScoreMatrix]:
    """A split dataset plus a stored score matrix with shared planted structure."""
    rng = np.random.default_rng(seed)
    catalog = synthetic_catalog(n_users, n_items, n_groups, rng)
    log = synthetic_interactions(catalog, rng, per_user=per_user)
    dataset = filter_and_split(log, min_interactions=min_interactions, ratios=ratios, catalog=catalog)
    scores_rng = np.random.default_rng(seed + 1)
    scores = synthetic_scores(dataset.catalog, scores_rng)
    return dataset, scores


def init_workspace(
    root: str | Path,
    name: str = "synth",
    n_users: int = 100,
    n_items: int = 100,
    n_groups: int = 5,
    seed: int = 42,
    per_user: tuple[int, int] = (10, 20),
) -> Path:
    """Write a ready-to-run data root: canonical dataset, scores, dataset config."""
    root = Path(root)
    dataset, scores = synthetic_dataset(
        n_users=n_users, n_items=n_items, n_groups=n_groups, seed=seed, per_user=per_user
    )
    ds_dir = root / "datasets" / name
    write_dataset(dataset, ds_dir)
    write_scores_tsv(scores, ds_dir)
    props_dir = root / "properties" / "dataset"
    props_dir.mkdir(parents=True, exist_ok=True)
    (props_dir / f"{name}.yaml").write_text(
        yaml.safe_dump({"type": "recommendation", "min_interactions": 5, "ratios": [0.8, 0.1, 0.1]}, sort_keys=True),
        encoding="utf-8",
    )
    return ds_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate a synthetic benchmark workspace.")
    parser.add_argument("--root", required=True, help="data root directory")
    parser.add_argument("--name", default="synth")
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--items", type=int, default=100)
    parser.add_argument("--groups", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    path = init_workspace(
        args.root, name=args.name, n_users=args.users, n_items=args.items, n_groups=args.groups, seed=args.seed
    )
    print(f"wrote synthetic dataset to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
