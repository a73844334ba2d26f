"""The chunked table parsers against their per-line references.

Every tab-separated table (scores, interactions, item groups, user groups
and a dataset's ``users.tsv``) is read through ``ingest``'s chunk reader;
``tests/reference_ingest.py`` keeps the per-line reader and parsers it
replaced.  Each parser must give the same table as its reference, or the same
first error (class and message), with the chunk size patched to 1 and 64
characters as well as the default, so that files and their first errors span
many chunks.  Files hold ids with spaces, blank and all-space lines, lines of
another width, values that do not convert, repeated entries, a field equal to
the chunk reader's line-end mark, and sometimes no final newline.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ingest as ref
from fairrank import ingest
from fairrank.errors import FairrankError

seeds = st.integers(0, 2**32 - 1)
CHUNKS = [1, 64, ingest.CHUNK_CHARS]
USERS = ["u1", "u 2", " u3", "u4 ", "u\0", "\0", ""]
ITEMS = ["i1", "i 2", "i3", " ", "i\0"]
NUMBERS = ["0.5", "1", "-2.5", " 3", "1e3", "1_0", "4 "]
NOT_NUMBERS = ["x", "", "1.2.3", " "]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except FairrankError as exc:
        return type(exc), str(exc)


def _pick(rng: np.random.Generator, values: list[str]) -> str:
    return values[int(rng.integers(len(values)))]


def _text(rng: np.random.Generator, rows: list[list[str]]) -> str:
    """``rows`` as tab-separated lines, with blank, all-space and wrong-width lines mixed in when the file is messy,
    one line end throughout, and sometimes no final newline."""
    mess = float(rng.choice([0.0, 0.0, 0.05, 0.2]))
    lines = []
    for fields in rows:
        while rng.random() < mess:
            lines.append(_pick(rng, ["", "", " ", "  \t", "\t".join(fields[:-1]), "\t".join([*fields, "x"])]))
        lines.append("\t".join(fields))
    end = _pick(rng, ["\n", "\r\n"])
    text = end.join(lines)
    return text if rng.random() < 0.3 else text + end


def _parse(parsers, name: str, text: str, chunk_chars: int, files: dict | None = None):
    """Each parser's outcome on a directory holding ``text`` as ``name`` beside ``files``."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "CHUNK_CHARS", chunk_chars)
        directory = Path(tmp)
        for file, content in {**(files or {}), name: text}.items():
            (directory / file).write_bytes(content.encode("utf-8"))
        path = directory if files is not None else directory / name
        return [_outcome(parser, path) for parser in parsers]


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@settings(max_examples=150)
@given(seed=seeds)
def test_score_table_matches_per_line_reader(chunk_chars, seed):
    rng = np.random.default_rng(seed)
    pairs = [(u, i) for u in USERS for i in ITEMS]
    rows = []
    for p in rng.permutation(len(pairs))[: int(rng.integers(0, 12))].tolist():
        score = _pick(rng, NOT_NUMBERS if rng.random() < 0.03 else NUMBERS)
        rows.append([*pairs[p], score])
        if rng.random() < 0.04:  # a repeated (user, item) pair, with any score
            rows.append([*rows[int(rng.integers(len(rows)))][:2], _pick(rng, NUMBERS)])
    header = ["user_id", "item_id", "score"][: 2 if rng.random() < 0.03 else 3]
    text = _text(rng, [header, *rows])
    got, want = _parse((ingest.read_scores, ref.read_scores), "scores.tsv", text, chunk_chars, files={})
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.user_ids, got.item_ids, got.semantics) == (want.user_ids, want.item_ids, want.semantics)
    assert np.array_equal(got.S, want.S) and np.array_equal(got.valid, want.valid)


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@settings(max_examples=150)
@given(seed=seeds)
def test_interaction_table_matches_per_line_reader(chunk_chars, seed):
    rng = np.random.default_rng(seed)
    names = ["user_id", "item_id", "label", "ts", "extra"]
    header = [names[j] for j in rng.permutation(len(names))]
    rows = []
    for _ in range(int(rng.integers(0, 12))):
        values = {"user_id": _pick(rng, USERS), "item_id": _pick(rng, ITEMS), "extra": _pick(rng, ITEMS),
                  "label": _pick(rng, NOT_NUMBERS + ["9", "nan"] if rng.random() < 0.05 else NUMBERS[:2]),
                  "ts": _pick(rng, NOT_NUMBERS + ["1.5"] if rng.random() < 0.05 else ["1", " 2", "1_000", "-3"])}
        rows.append([values[name] for name in header])
    text = _text(rng, [header, *rows])
    parsers = (lambda path: ingest.parse_interactions(path, {"timestamp": "ts"}),
               lambda path: ref.parse_interactions(path, {"timestamp": "ts"}))
    got, want = _parse(parsers, "inter.tsv", text, chunk_chars)
    if not isinstance(want, ref.RecordLog):
        assert got == want
        return
    assert ref.records_of(got) == want.records
    assert (got.user_ids, got.item_ids) == (want.users(), want.items())


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@settings(max_examples=150)
@given(seed=seeds)
def test_item_group_table_matches_per_line_reader(chunk_chars, seed):
    rng = np.random.default_rng(seed)
    groups = ["g1", "g1|g2", "g 1", "|g2|", "g2||g1"]
    rows = [[_pick(rng, ITEMS), _pick(rng, ["|", ""] if rng.random() < 0.03 else groups)]
            for _ in range(int(rng.integers(0, 12)))]  # repeated items too, the last line winning
    got, want = _parse((ingest.parse_item_groups, ref.parse_item_groups), "groups.tsv", _text(rng, rows), chunk_chars)
    assert got == want
    if isinstance(got, dict):
        assert list(got) == list(want)


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@settings(max_examples=150)
@given(seed=seeds)
def test_user_group_table_matches_per_line_reader(chunk_chars, seed):
    rng = np.random.default_rng(seed)
    rows = [[_pick(rng, USERS), _pick(rng, ["g1", "g 2", "", " "])] for _ in range(int(rng.integers(0, 12)))]
    got, want = _parse((ingest.parse_user_groups, ref.parse_user_groups), "users.tsv", _text(rng, rows), chunk_chars)
    assert got == want
    if isinstance(got, dict):
        assert list(got) == list(want)


# A dataset directory whose only item is i1 and whose splits are empty, so that users.tsv decides the outcome.
DATASET = {
    "manifest.yaml": yaml.safe_dump({"format_version": 1, "counts": {"train": 0, "valid": 0, "test": 0},
                                     "split": {"ratios": [0.8, 0.1, 0.1], "min_interactions": 1},
                                     "has_user_groups": True}),
    "items.tsv": "i1\tg1\n",
    **{f"{name}.tsv": "user_id\titem_id\tlabel\ttimestamp\n" for name in ("train", "valid", "test")},
}


def _dataset_users(directory: Path):
    catalog = ingest.read_dataset(directory).catalog
    return catalog.users, catalog.user_groups


def _reference_users(directory: Path):
    users, user_groups = ref.read_users(directory / "users.tsv")
    catalog = ingest._catalog(users, {"i1": frozenset({"g1"})}, user_groups)
    return catalog.users, catalog.user_groups


@pytest.mark.parametrize("chunk_chars", CHUNKS)
@settings(max_examples=150)
@given(seed=seeds)
def test_dataset_users_table_matches_per_line_reader(chunk_chars, seed):
    rng = np.random.default_rng(seed)
    users = [USERS[j] for j in rng.permutation(len(USERS))[: int(rng.integers(0, len(USERS) + 1))]]
    if users and rng.random() < 0.05:
        users.append(users[0])  # a repeated user, which the catalog rejects
    rows = [["user_id", "group"], *([user, _pick(rng, ["g1", "g 2", "", ""])] for user in users)]
    text = _text(rng, rows)
    got, want = _parse((_dataset_users, _reference_users), "users.tsv", text, chunk_chars, files=DATASET)
    assert got == want
