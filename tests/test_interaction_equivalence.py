"""The column interaction log against its per-record reference.

Parsing, filtering and splitting, and writing a dataset are compared with
the record-by-record code in ``tests/reference_ingest.py``: the same rows in
the same order, the same id tables, the same catalog, the same dataset
bytes, or the same error type and message.  Logs have timestamp ties, users
below ``min_interactions``, ids that differ only by trailing NULs, and
catalogs that miss items or hold user groups.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ingest as ref
from fairrank.core import Catalog
from fairrank.errors import FairrankError
from fairrank.ingest import SplitDataset, filter_and_split, parse_interactions, write_dataset

seeds = st.integers(0, 2**32 - 1)
RATIOS = [(0.8, 0.1, 0.1), (0.6, 0.2, 0.2), (1 / 3, 1 / 3, 1 / 3), (0.7, 0.2, 0.1), (0.5, 0.25, 0.25)]
# Field values the parsers accept or reject; no timestamp passes int64, which only the column parser rejects.
LABELS = ["1", "0", "2.5", "5", " 4", "1_0", "9", "-1", "nan", "inf", "-inf", "x", ""]
STAMPS = ["1", "2", "10", " 3", "1_000", "-5", "x", "1.5", ""]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FairrankError as exc:
        return type(exc), str(exc)


def random_records(rng: np.random.Generator) -> list[ref.Interaction]:
    """Records in random file order over a few users and items, with few distinct timestamps."""
    users = ["u10", "u9", "u", "u\0", "v"][: int(rng.integers(1, 6))]
    items = [f"i{j}" for j in range(int(rng.integers(1, 8)))] + ["i\0"]
    return [
        ref.Interaction(users[int(rng.integers(len(users)))], items[int(rng.integers(len(items)))],
                        float(rng.choice([0.0, 1.0, 3.5])), int(rng.integers(0, 6)))
        for _ in range(int(rng.integers(0, 60)))
    ]


def random_catalog(rng: np.random.Generator, records: list[ref.Interaction]) -> Catalog | None:
    """None, or a catalog of every user and (mostly) every item, some with user groups."""
    if rng.random() < 0.3:
        return None
    users = sorted({rec.user for rec in records} | {"extra-user"})
    items = sorted({rec.item for rec in records if rng.random() < 0.97} | {"extra-item"})
    groups = ["gA", "gB", "gC"]
    item_groups = {item: frozenset(rng.choice(groups, size=int(rng.integers(1, 3)), replace=False).tolist())
                   for item in items}
    user_groups = {user: groups[int(rng.integers(3))] for user in users if rng.random() < 0.6}
    return Catalog(users, items, groups, item_groups, user_groups if rng.random() < 0.7 else None)


@settings(max_examples=200)
@given(seed=seeds)
def test_split_matches_per_record_reference(seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    records = random_records(rng)
    catalog = random_catalog(rng, records)
    min_interactions, ratios = int(rng.integers(0, 7)), RATIOS[int(rng.integers(len(RATIOS)))]
    got = _outcome(filter_and_split, ref.log_of(records), min_interactions, ratios, catalog)
    expected = _outcome(ref.filter_and_split, ref.RecordLog(records), min_interactions, ratios, catalog)
    if not isinstance(got, SplitDataset):
        assert got == expected
        return
    *splits, ref_catalog = expected
    assert [ref.records_of(log) for log in got.splits().values()] == splits
    assert got.catalog == ref_catalog
    for log in got.splits().values():
        assert (log.user_ids, log.item_ids) == (got.catalog.users, got.catalog.items)
    directory = tmp_path_factory.mktemp("split")
    write_dataset(got, directory / "columns")
    ref.write_dataset(dict(zip(("train", "valid", "test"), splits)), ref_catalog, got.split_spec, directory / "records")
    for name in ("manifest.yaml", "users.tsv", "items.tsv", "train.tsv", "valid.tsv", "test.tsv"):
        assert (directory / "columns" / name).read_bytes() == (directory / "records" / name).read_bytes()


@settings(max_examples=200)
@given(seed=seeds)
def test_parser_matches_per_line_reference(seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    lines = ["item_id\tts\tuser_id\tlabel"]
    for _ in range(int(rng.integers(0, 12))):
        if rng.random() < 0.1:
            lines.append("")  # a blank line, skipped
            continue
        label = LABELS[int(rng.integers(len(LABELS)))] if rng.random() < 0.15 else "1"
        stamp = STAMPS[int(rng.integers(len(STAMPS)))] if rng.random() < 0.15 else str(int(rng.integers(0, 9)))
        fields = [f"i{int(rng.integers(4))}", stamp, f"u{int(rng.integers(3))}", label]
        if rng.random() < 0.08:  # a line of another width than the header's
            fields = fields[:-1] if rng.random() < 0.5 else [*fields, "extra"]
        lines.append("\t".join(fields))
    path = tmp_path_factory.mktemp("parse") / "inter.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = {"timestamp": "ts"}
    got = _outcome(parse_interactions, path, spec)
    expected = _outcome(ref.parse_interactions, path, spec)
    if not isinstance(expected, ref.RecordLog):
        assert got == expected
        return
    assert ref.records_of(got) == expected.records
    assert (got.user_ids, got.item_ids) == (expected.users(), expected.items())
