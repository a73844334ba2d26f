"""Every reader, fed arbitrary text or bytes in any one of its input files, returns or raises a FairrankError."""

import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fairrank.errors import FairrankError
from fairrank.ingest import (
    parse_diversity_qrels,
    parse_interactions,
    parse_item_groups,
    parse_run_file,
    parse_user_groups,
    read_dataset,
    read_scores,
    write_dataset,
    write_scores,
    write_scores_tsv,
)
from fairrank.synth import synthetic_dataset
from fairrank.trainer import MFModel, TrainConfig, load_model, save_model

FIELD = st.one_of(
    st.text(alphabet="ab01-.e|: é\x00", max_size=5),
    st.sampled_from(["", "0", "1", "2", "-1", "0.5", "nan", "inf", "1e999", "u0", "i0", "g0", "Q0"]),
)
LINE = st.lists(FIELD, max_size=7).map("\t".join)
YAML_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)


@st.composite
def edited_table(draw, text: str) -> str:
    """``text`` with one line replaced by, or preceded by, a line of arbitrary fields."""
    lines = text.splitlines()
    at = draw(st.integers(0, len(lines)))
    lines[at:at + draw(st.integers(0, 1))] = [draw(LINE)]
    return "\n".join(lines) + "\n"


@st.composite
def edited_mapping(draw, text: str) -> str:
    """The YAML mapping ``text`` with some entries deleted or given arbitrary values."""
    data = yaml.safe_load(text)
    for key in draw(st.lists(st.sampled_from(sorted(data)) | st.text(max_size=3), max_size=3)):
        if draw(st.booleans()):
            data.pop(key, None)
        else:
            data[key] = draw(YAML_VALUE)
    return yaml.safe_dump(data)


def _write(directory: Path, name: str, text: str) -> None:
    (directory / name).write_text(text, encoding="utf-8")


def _checkpoint(d: Path) -> None:
    config = TrainConfig(dim=2, use_item_bias=True)
    vecs = np.arange(6, dtype=float).reshape(3, 2) / 7
    save_model(MFModel(["u0", "u1"], ["i0", "i1", "i2"], vecs[:2], vecs, np.ones(3), config, [0.5]), d)


def _checkpoint_over_version_1(d: Path) -> None:
    """A checkpoint saved where a version-1 one was: its text tables stay behind, and no reader may use them."""
    _write(d, "user_vecs.tsv", "u0\t0.5\t0.25\nu1\t-1.0\t2.0\n")
    _write(d, "item_vecs.tsv", "i0\t0.5\t0.25\t1.0\ni1\t-1.0\t2.0\t0.0\n")
    _checkpoint(d)


# reader -> (writes valid input files into a directory, reads that directory, the files)
READERS = {
    "interactions": (
        lambda d: _write(d, "inter.tsv", "user_id\titem_id\tlabel\ttimestamp\nu0\ti0\t1.0\t1\nu1\ti0\t0.0\t2\n"),
        lambda d: parse_interactions(d / "inter.tsv"),
        ["inter.tsv"],
    ),
    "item_groups": (
        lambda d: _write(d, "groups.tsv", "i0\tg0|g1\ni1\tg1\n"),
        lambda d: parse_item_groups(d / "groups.tsv"),
        ["groups.tsv"],
    ),
    "user_groups": (
        lambda d: _write(d, "users.tsv", "u0\tg0\nu1\tg1\n"),
        lambda d: parse_user_groups(d / "users.tsv"),
        ["users.tsv"],
    ),
    "qrels": (
        lambda d: _write(d, "qrels.txt", "q1 t1 d1 1\nq1 t2 d2 1\nq2 t1 d1 0\n"),
        lambda d: parse_diversity_qrels(d / "qrels.txt"),
        ["qrels.txt"],
    ),
    "run_file": (
        lambda d: _write(d, "run.txt", "q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.4 t\nq2 Q0 d1 1 0.3 t\n"),
        lambda d: parse_run_file(d / "run.txt"),
        ["run.txt"],
    ),
    "scores": (
        lambda d: write_scores_tsv(synthetic_dataset(n_users=4, n_items=5, n_groups=2, seed=5)[1], d),
        read_scores,
        ["scores.tsv", "scores.meta.yaml"],
    ),
    "dataset": (
        lambda d: write_dataset(synthetic_dataset(n_users=6, n_items=8, n_groups=2, seed=3, per_user=(6, 8))[0], d),
        read_dataset,
        ["manifest.yaml", "users.tsv", "items.tsv", "train.tsv", "valid.tsv", "test.tsv"],
    ),
    "checkpoint": (_checkpoint_over_version_1, load_model, ["manifest.yaml", "user_vecs.tsv", "item_vecs.tsv"]),
}
CASES = [(reader, name) for reader, (_, _, names) in READERS.items() for name in names]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """One directory of valid input files per reader."""
    root = tmp_path_factory.mktemp("originals")
    for reader, (write, _, _) in READERS.items():
        (root / reader).mkdir()
        write(root / reader)
    return root


@pytest.mark.parametrize("reader, name", CASES, ids=[f"{r}-{n}" for r, n in CASES])
@settings(max_examples=60)
@given(data=st.data())
def test_reader_returns_or_raises_fairrank_error(originals, reader, name, data):
    text = (originals / reader / name).read_text(encoding="utf-8")
    edited = edited_mapping(text) if name.endswith(".yaml") else edited_table(text)
    content = data.draw(st.one_of(edited, st.text(), st.binary()), label=name)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / reader
        shutil.copytree(originals / reader, directory)
        if isinstance(content, bytes):
            (directory / name).write_bytes(content)
        else:
            _write(directory, name, content)
        try:
            READERS[reader][1](directory)
        except FairrankError:
            pass


def _savez(arrays: dict) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)  # an object array is pickled
    return buffer.getvalue()


# Each edit of one store member; None removes it.
MEMBER_EDITS = {
    "removed": lambda a: None,
    "int": lambda a: np.arange(a.size, dtype=np.int64).reshape(a.shape),
    "float32": lambda a: a.astype(np.float32) if a.dtype.kind != "U" else a,
    "object": lambda a: a.astype(object),
    "bytes": lambda a: a.astype("S") if a.dtype.kind == "U" else a.astype(np.uint8),
    "flattened": lambda a: a.reshape(-1),
    "nested": lambda a: a[..., None],
    "row-dropped": lambda a: a[:-1],
    "reversed": lambda a: a[::-1],
    "scalar": lambda a: np.array(a.flat[0]) if a.size else np.array(0),
}


@st.composite
def edited_store(draw, original: bytes, arrays: dict) -> bytes:
    """``original`` truncated, with bytes flipped, or with one member replaced by an edited one."""
    edit = draw(st.sampled_from(["truncate", "flip", "member"]))
    if edit == "truncate":
        return original[: draw(st.integers(0, len(original) - 1))]
    if edit == "flip":
        data = bytearray(original)
        flips = st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255))
        for at, mask in draw(st.lists(flips, min_size=1, max_size=4)):
            data[at] ^= mask
        return bytes(data)
    name = draw(st.sampled_from(sorted(arrays)))
    edited = {**arrays, name: MEMBER_EDITS[draw(st.sampled_from(sorted(MEMBER_EDITS)))](arrays[name])}
    return _savez({key: value for key, value in edited.items() if value is not None})


# store -> (writes a valid store and whatever it is read with into a directory, reads that directory)
STORES = {
    "scores.npz": (
        lambda d: write_scores(synthetic_dataset(n_users=4, n_items=5, n_groups=2, seed=5)[1], d),
        read_scores,
    ),
    "model.npz": (_checkpoint, load_model),
}


@pytest.mark.parametrize("name", list(STORES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_store_reader_returns_or_raises_fairrank_error(name, data):
    write, read = STORES[name]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write(directory)
        original = (directory / name).read_bytes()
        with np.load(directory / name) as store:
            arrays = dict(store)
        content = data.draw(st.one_of(edited_store(original, arrays), st.binary()), label=name)
        (directory / name).write_bytes(content)
        try:
            read(directory)
        except FairrankError:
            pass
