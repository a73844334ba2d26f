"""Parsers, filtering/splitting, and canonical round-trips."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairrank import ingest
from fairrank.core import Catalog, InteractionLog, RankingSlate, ScoreMatrix
from fairrank.errors import (
    EmptyDataset,
    FairrankError,
    FormatError,
    InvariantViolation,
    IoError,
    ParseError,
    SchemaError,
    VersionError,
)
from fairrank.ingest import (
    IntentJudgments,
    SearchRun,
    SplitDataset,
    build_catalog,
    filter_and_split,
    parse_diversity_qrels,
    parse_interactions,
    parse_item_groups,
    parse_run_file,
    parse_user_groups,
    read_dataset,
    read_scores,
    write_dataset,
    write_run_file,
    write_scores,
    write_scores_tsv,
)
from fairrank.metrics import slate_hits
from fairrank.store import read_store, replace_file, write_store
from fairrank.synth import init_workspace, synthetic_dataset
from fairrank.trainer import MFModel, TrainConfig, load_model, save_model

from conftest import make_catalog, with_bad_line_2
from reference_diverse import listed_of, lists_of, query_of, run_of
from reference_ingest import Interaction, RecordLog, log_of, records_of

PROVENANCE = Path(__file__).resolve().parents[1] / "perfbench" / "provenance.json"


def write_tsv(path, header, rows):
    lines = ["\t".join(header)] + ["\t".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestParseInteractions:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "inter.tsv"
        write_tsv(
            path,
            ["user_id", "item_id", "label", "timestamp"],
            [["u1", "i1", 1.0, 10], ["u1", "i2", 0.0, 20], ["u2", "i1", 1.0, 5]],
        )
        log = parse_interactions(path)
        assert len(log) == 3
        assert records_of(log)[0] == Interaction("u1", "i1", 1.0, 10)
        assert (log.user_ids, log.item_ids) == (["u1", "u2"], ["i1", "i2"])
        assert (log.user.tolist(), log.item.tolist()) == ([0, 0, 1], [0, 1, 0])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "inter.tsv"
        write_tsv(path, ["user_id", "item_id", "timestamp"], [["u1", "i1", 10]])
        with pytest.raises(SchemaError, match="label"):
            parse_interactions(path)

    def test_first_malformed_line_named(self, tmp_path):
        path = tmp_path / "inter.tsv"
        rows = [["u1", f"i{j}", 1.0, j] for j in range(10)]
        rows[3] = ["u1", "i3", "notanumber", 3]
        rows[7] = ["u1", "i7", 1.0, "bad"]
        write_tsv(path, ["user_id", "item_id", "label", "timestamp"], rows)
        with pytest.raises(ParseError, match="line 5"):
            parse_interactions(path)

    @pytest.mark.parametrize(
        "lines, lineno, message",
        [
            ([("9", "1"), ("1", "2"), ("nan", "3")], 2, "label 9.0 outside [0, 5]"),
            ([("1", "1"), ("nan", "2"), ("-inf", "3")], 3, "label nan outside [0, 5]"),
            ([("1", "1"), ("inf", "x"), ("7", "3")], 3, "invalid literal for int() with base 10: 'x'"),
            ([("1", "1"), ("6", "2"), ("x", "3")], 3, "label 6.0 outside [0, 5]"),
            ([("1", "1"), ("1", "2"), ("x", "y")], 4, "could not convert string to float: 'x'"),
            ([("1", "2"), ("2", str(2**63)), ("9", "3")], 3, f"timestamp {2**63} outside int64"),
            ([("1", "2"), ("1", f" -{10**30}")], 3, f"timestamp -{10**30} outside int64"),
        ],
        ids=["range-then-nan", "nan-then-inf", "timestamp-before-range", "range-before-value", "value-first",
             "timestamp-past-int64", "timestamp-below-int64"],
    )
    def test_earliest_bad_line_named(self, tmp_path, lines, lineno, message):
        path = tmp_path / "inter.tsv"
        write_tsv(path, ["user_id", "item_id", "label", "timestamp"], [["u1", "i1", *line] for line in lines])
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line {lineno}: {re.escape(message)}$"):
            parse_interactions(path)

    def test_bad_value_before_a_line_of_another_width_wins(self, tmp_path):
        path = tmp_path / "inter.tsv"
        write_tsv(path, ["user_id", "item_id", "label", "timestamp"],
                  [["u1", "i1", "x", 1], ["u1", "i2", 1, 2], ["u1", "i3", 1]])
        message = f"{path}: line 2: could not convert string to float: 'x'"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_interactions(path)

    def test_one_column_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("x\n1\n\n2\n", encoding="utf-8")
        log = parse_interactions(path, dict.fromkeys(["user", "item", "label", "timestamp"], "x"))
        assert (log.user_ids, log.label.tolist(), log.timestamp.tolist()) == (["1", "2"], [1.0, 2.0], [1, 2])

    def test_python_spellings_accepted(self, tmp_path):
        path = tmp_path / "inter.tsv"
        rows = [["u1", "i1", " 5", "1_000"], ["u1", "i2", "1e0", " 7 "]]
        write_tsv(path, ["user_id", "item_id", "label", "timestamp"], rows)
        log = parse_interactions(path)
        assert (log.label.tolist(), log.timestamp.tolist()) == ([5.0, 1.0], [1000, 7])

    def test_column_remapping(self, tmp_path):
        path = tmp_path / "inter.tsv"
        write_tsv(path, ["uid", "iid", "rating", "ts"], [["u1", "i1", 4.5, 1]])
        log = parse_interactions(path, {"user": "uid", "item": "iid", "label": "rating", "timestamp": "ts"})
        assert log.label.tolist() == [4.5]

    def test_deterministic(self, tmp_path):
        path = tmp_path / "inter.tsv"
        write_tsv(path, ["user_id", "item_id", "label", "timestamp"], [["u1", "i1", 1, 1], ["u2", "i2", 1, 2]])
        assert parse_interactions(path) == parse_interactions(path)


def test_ids_differing_by_a_trailing_nul_stay_distinct(tmp_path):
    # At t = 2, the last two records of each user, u finds only i\0 relevant and u\0 only i.
    rows = [
        [user, item, float(t < 2 or (user == "u") != (item == "i")), t]
        for t in range(3) for user in ("u", "u\0") for item in ("i", "i\0")
    ]
    write_tsv(tmp_path / "inter.tsv", ["user_id", "item_id", "label", "timestamp"], rows)
    log = parse_interactions(tmp_path / "inter.tsv")
    assert (log.user_ids, log.item_ids) == (["u", "u\0"], ["i", "i\0"])
    dataset = filter_and_split(log, min_interactions=1, ratios=(0.5, 0.25, 0.25))
    assert (dataset.catalog.users, dataset.catalog.items) == (["u", "u\0"], ["i", "i\0"])
    write_dataset(dataset, tmp_path / "ds")
    back = read_dataset(tmp_path / "ds")
    assert back == dataset
    expected = [("u", "i", 0.0, 2), ("u", "i\0", 1.0, 2), ("u\0", "i", 1.0, 2), ("u\0", "i\0", 0.0, 2)]
    assert records_of(back.test) == expected
    matrix = ScoreMatrix(["u", "u\0"], ["i", "i\0"], [[2.0, 1.0], [2.0, 1.0]])
    hit, n_relevant = slate_hits(RankingSlate(2, [[0, 1], [0, 1]], matrix), back.test, 2)
    assert hit.tolist() == [[False, True], [True, False]] and n_relevant.tolist() == [1, 1]


class TestFilterAndSplit:
    def _log(self, counts: dict[str, int]) -> InteractionLog:
        records = []
        ts = 0
        for user, n in counts.items():
            for j in range(n):
                ts += 1
                records.append(Interaction(user, f"i{j}", 1.0, ts))
        return log_of(records)

    def test_floor_split_8_1_1(self):
        ds = filter_and_split(self._log({"u1": 10}), min_interactions=5, ratios=(0.8, 0.1, 0.1))
        assert (len(ds.train), len(ds.valid), len(ds.test)) == (8, 1, 1)

    def test_sparse_user_dropped(self):
        ds = filter_and_split(self._log({"u1": 10, "u2": 4}), min_interactions=5)
        for log in ds.splits().values():
            assert all(r.user == "u1" for r in records_of(log))
        assert "u2" not in ds.catalog.users

    def test_empty_after_filter(self):
        with pytest.raises(EmptyDataset):
            filter_and_split(self._log({"u1": 2}), min_interactions=5)

    def test_partition_reconciles_counts(self, rng):
        records = []
        ts = 0
        for ui in range(100):
            n = int(rng.integers(5, 15))
            for j in range(n):
                ts += 1
                records.append(Interaction(f"u{ui:03d}", f"i{j}", 1.0, ts))
        log = log_of(records)
        ds = filter_and_split(log, min_interactions=5)
        total = sum(len(s) for s in ds.splits().values())
        assert total == len(records)
        # No record was invented: every output record exists in the input.
        source = {(r.user, r.item, r.timestamp) for r in records}
        for split in ds.splits().values():
            for r in records_of(split):
                assert (r.user, r.item, r.timestamp) in source

    def test_chronological_order_between_splits(self):
        ds = filter_and_split(self._log({"u1": 10}), min_interactions=5)
        assert ds.train.timestamp.max() <= ds.valid.timestamp.min()
        assert ds.valid.timestamp.max() <= ds.test.timestamp.min()

    def test_per_user_chronology_across_splits(self, rng):
        # Interleave users so the split has to keep per-user order, not global order.
        records = []
        stamps = list(rng.permutation(300))
        idx = 0
        for _ in range(30):
            for ui in range(10):
                records.append(Interaction(f"u{ui}", f"i{idx}", 1.0, int(stamps[idx])))
                idx += 1
        ds = filter_and_split(log_of(records), min_interactions=5)
        per_user = {name: RecordLog(records_of(log)).per_user() for name, log in ds.splits().items()}
        for user in ds.catalog.users:
            tr = [r.timestamp for r in per_user["train"].get(user, [])]
            va = [r.timestamp for r in per_user["valid"].get(user, [])]
            te = [r.timestamp for r in per_user["test"].get(user, [])]
            if tr and va:
                assert max(tr) <= min(va)
            if va and te:
                assert max(va) <= min(te)
            if tr and te:
                assert max(tr) <= min(te)

    def test_catalog_restricted_to_retained(self):
        catalog = make_catalog({f"i{j}": {"g1"} for j in range(12)}, users=["u1", "u2"])
        log = self._log({"u1": 10, "u2": 3})
        ds = filter_and_split(log, min_interactions=5, catalog=catalog)
        assert ds.catalog.users == ["u1"]
        assert set(ds.catalog.items) == {f"i{j}" for j in range(10)}


class TestDiversityQrels:
    def test_single_line(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 1 d1 1\n", encoding="utf-8")
        judg = parse_diversity_qrels(path)
        q = query_of(judg, "1")
        assert q.intents == ["1"]
        assert q.priors == {"1": 1.0}
        assert q.relevance("d1", "1") == 1.0

    def test_uniform_priors_two_intents(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 1 d1 1\n1 2 d2 1\n", encoding="utf-8")
        q = query_of(parse_diversity_qrels(path), "1")
        assert q.priors == {"1": 0.5, "2": 0.5}

    def test_bad_relevance_rejected(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 1 d1 2\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_diversity_qrels(path)

    def test_duplicates_last_wins_with_count(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("1 1 d1 1\n1 1 d1 0\n", encoding="utf-8")
        judg = parse_diversity_qrels(path)
        assert judg.duplicate_count == 1
        assert query_of(judg, "1").relevance("d1", "1") == 0.0

    def test_intent_range_fixture(self, tmp_path, rng):
        # Web-track style fixture: every query declares between 3 and 8 intents.
        lines = []
        for qid in range(1, 11):
            n_intents = int(rng.integers(3, 9))
            for t in range(1, n_intents + 1):
                for d in range(1, 4):
                    rel = int(rng.integers(0, 2))
                    lines.append(f"{qid} {t} d{qid}-{d} {rel}")
        path = tmp_path / "qrels"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        judg = parse_diversity_qrels(path)
        assert len(judg.query_ids) == 10
        for qid in judg.query_ids:
            q = query_of(judg, qid)
            assert 3 <= len(q.intents) <= 8
            assert abs(sum(q.priors.values()) - 1.0) < 1e-9

    def test_parse_peak_memory_per_line(self, tmp_path):
        # Shaped like perfbench/searchgen.py: each query judges each of its docs for each of its 6 intents.
        rel = np.random.default_rng(5).random((100, 100, 6)) < 0.15
        lines = [f"q{q:04d} i{i} d{q:04d}-{j:03d} {int(rel[q, j, i])}\n"
                 for q in range(100) for j in range(100) for i in range(6)]
        path = tmp_path / "qrels"
        path.write_text("".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            judg = parse_diversity_qrels(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert judg.rel.sum() == rel.sum()
        # Measured at about 74 B a line; int64 code columns and their whole-file temporaries take about 129.
        assert peak / len(lines) < 88


class TestQueryJudgments:
    """Per-query invariants, enforced by the ``IntentJudgments`` constructor."""

    @staticmethod
    def build(intents, prior, docs=(), rel=None):
        """Query ``q1`` declaring ``intents`` with ``prior``, or two queries when given two intent lists."""
        intents = intents if isinstance(intents[0], list) else [intents]
        qids = [f"q{q + 1}" for q in range(len(intents))]
        docs = [list(docs)] + [[] for _ in intents[1:]]
        if rel is None:
            rel = np.zeros((len(qids), len(docs[0]), max(map(len, intents))), dtype=bool)
        return IntentJudgments(qids, intents, *listed_of(docs), rel, prior)

    def test_priors_keyed_by_other_intents_rejected(self):
        # Summing to 1 is not enough: the priors must cover exactly the declared intents.
        with pytest.raises(InvariantViolation, match="declared intents"):
            self.build([["a"], ["a", "b"]], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(InvariantViolation, match="declared intents"):
            self.build(["a", "b"], [[1.0]])

    @pytest.mark.parametrize("priors", [[1.5, -0.5], [float("nan"), 1.0]])
    def test_prior_outside_unit_interval_rejected(self, priors):
        with pytest.raises(InvariantViolation, match="outside"):
            self.build(["a", "b"], [priors])

    def test_valid_priors_accepted(self):
        judg = self.build(["a", "b"], [[0.0, 1.0]], docs=["d1"], rel=[[[False, True]]])
        assert query_of(judg).relevance("d1", "b") == 1.0
        assert judg.prior.tolist() == [[0.0, 1.0]]

    def test_default_priors_uniform_with_zero_padding(self):
        judg = self.build([["a"], ["a", "b", "c"]], None)
        assert judg.prior.tolist() == [[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]
        assert not judg.rel.flags.writeable and not judg.prior.flags.writeable

    @pytest.mark.parametrize(
        "intents, docs, rel, match",
        [
            ([[], ["a"]], [[], []], np.zeros((2, 0, 1)), "declares no intents"),
            ([["b", "a"]], [[]], np.zeros((1, 0, 2)), "not distinct and ascending"),
            ([["a"]], [["d2", "d1"]], np.ones((1, 2, 1)), "not distinct and ascending"),
            ([["a"]], [["d1"]], np.ones((1, 2, 1)), "shape"),
            ([["a"]], [["d1", "d2"]], [[[True], [False]]], "no positive relevance"),
            ([["a"], ["a", "b"]], [["d1"], []], [[[True, True]], [[False, False]]], "undeclared intents"),
            ([["a"], ["a"]], [["d1"], []], [[[True]], [[True]]], "past its judged docs"),
        ],
    )
    def test_malformed_tables_rejected(self, intents, docs, rel, match):
        with pytest.raises(InvariantViolation, match=match):
            IntentJudgments([f"q{q}" for q in range(len(intents))], intents, *listed_of(docs), rel)

    def test_query_ids_must_ascend(self):
        with pytest.raises(InvariantViolation, match="query ids"):
            IntentJudgments(["q2", "q1"], [["a"], ["a"]], [], [], np.zeros((2, 0, 1)))


class TestSearchRun:
    @pytest.mark.parametrize(
        "query_ids, doc_ids, docs, scores",
        [
            (["q2", "q1"], ["d1"], [[0], [0]], [[1.0], [1.0]]),  # query ids out of order
            (["q1"], ["d2", "d1"], [[0, 1]], [[2.0, 1.0]]),  # doc table out of order
            (["q1"], ["d1"], [[0, 1]], [[2.0, 1.0]]),  # a position past the doc table
            (["q1"], ["d1", "d2"], [[-1, 0]], [[0.0, 1.0]]),  # padding before a doc
            (["q1"], ["d1", "d2"], [[0, -2]], [[1.0, 0.0]]),  # padding other than -1
            (["q1"], ["d1", "d2"], [[1, 1]], [[2.0, 1.0]]),  # a doc twice in one query
            (["q1"], ["d1"], [[0]], [[float("nan")]]),  # a non-finite score
            (["q1"], ["d1"], [[0]], [[1.0, 0.0]]),  # scores of another shape
            (["q1", "q2"], ["d1"], [[0]], [[1.0]]),  # fewer rows than queries
        ],
    )
    def test_malformed_arrays_rejected(self, query_ids, doc_ids, docs, scores):
        with pytest.raises(InvariantViolation, match="a run holds"):
            SearchRun(query_ids, doc_ids, docs, scores)

    def test_rerank_picks_positions_and_scores_by_rank(self):
        run = run_of({"q1": [("d1", 0.9), ("d2", 0.5), ("d3", 0.1)], "q2": [("d4", 1.0)]})
        assert lists_of(run.rerank([[2, 0, -1], [0, -1, -1]])).queries == {
            "q1": [("d3", 2.0), ("d1", 1.0)], "q2": [("d4", 1.0)]}
        assert lists_of(run.rerank(np.arange(2))).queries == {"q1": [("d1", 2.0), ("d2", 1.0)], "q2": [("d4", 1.0)]}


class TestRunFile:
    def _write_run(self, path, n, qid="1"):
        lines = [f"{qid} Q0 d{j} {j} {100 - j}.0 tag" for j in range(1, n + 1)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_fifty_line_run(self, tmp_path):
        path = tmp_path / "run"
        self._write_run(path, 50)
        run = lists_of(parse_run_file(path))
        assert len(run.queries["1"]) == 50

    def test_truncation_to_50(self, tmp_path):
        path = tmp_path / "run"
        self._write_run(path, 100)
        run = lists_of(parse_run_file(path, truncate=50))
        assert len(run.queries["1"]) == 50
        assert run.docs("1")[0] == "d1"

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("1 Q0 d1 1 2.0 t\n1 Q0 d1 2 1.0 t\n", encoding="utf-8")
        with pytest.raises(FormatError):
            parse_run_file(path)

    def test_non_increasing_rank_rejected(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("1 Q0 d1 2 2.0 t\n1 Q0 d2 2 1.0 t\n", encoding="utf-8")
        with pytest.raises(FormatError):
            parse_run_file(path)

    def test_parse_peak_memory_per_line(self, tmp_path):
        # Shaped like perfbench/searchgen.py: 300 queries each rank 100 docs of their own by descending score.
        rng = np.random.default_rng(5)
        ranked = [zip(rng.permutation(100).tolist(), np.sort(rng.random(100))[::-1].tolist()) for _ in range(300)]
        lines = [f"q{q:04d} Q0 d{q:04d}-{j:03d} {r + 1} {s!r} bm25\n" for q, docs in enumerate(ranked)
                 for r, (j, s) in enumerate(docs)]
        path = tmp_path / "run"
        path.write_text("".join(lines), encoding="utf-8")
        tracemalloc.start()
        try:
            run = parse_run_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.docs.shape == (300, 50)
        # Measured at about 208 B a line; intp code columns and an object column of Python-int ranks take about 280.
        assert peak / len(lines) < 240


class TestCanonicalIo:
    def test_round_trip_identity(self, tmp_path):
        dataset, scores = synthetic_dataset(n_users=30, n_items=40, n_groups=4, seed=7)
        write_dataset(dataset, tmp_path / "ds")
        back = read_dataset(tmp_path / "ds")
        assert back == dataset

    def test_read_empty_dir(self, tmp_path):
        with pytest.raises(IoError):
            read_dataset(tmp_path)

    def test_version_mismatch(self, tmp_path):
        dataset, _ = synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))
        write_dataset(dataset, tmp_path / "ds")
        manifest = tmp_path / "ds" / "manifest.yaml"
        manifest.write_text(manifest.read_text().replace("format_version: 1", "format_version: 99"))
        with pytest.raises(VersionError):
            read_dataset(tmp_path / "ds")

    def test_large_round_trip_counts(self, tmp_path):
        dataset, _ = synthetic_dataset(n_users=1000, n_items=80, n_groups=8, seed=11, per_user=(5, 9))
        write_dataset(dataset, tmp_path / "big")
        back = read_dataset(tmp_path / "big")
        for name, log in dataset.splits().items():
            assert len(back.splits()[name]) == len(log)

    def test_scores_round_trip(self, tmp_path):
        _, scores = synthetic_dataset(n_users=15, n_items=20, n_groups=3, seed=5)
        write_scores(scores, tmp_path / "ds")
        back = read_scores(tmp_path / "ds")
        assert back == scores
        assert back.semantics == scores.semantics

    def test_score_table_round_trip(self, tmp_path):
        _, scores = synthetic_dataset(n_users=15, n_items=20, n_groups=3, seed=5)
        write_scores_tsv(scores, tmp_path / "ds")
        assert read_scores(tmp_path / "ds") == scores


# No line break: a store refuses it (``test_line_break_id_is_a_format_error``).
CHARS = st.characters(exclude_characters="\n")
IDS = st.lists(st.text(CHARS, max_size=3) | st.text(CHARS, max_size=2).map(lambda s: s + "\x00"), unique=True,
               max_size=4)
EDGE_SCORES = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1.0])
SCORES = {
    "raw": EDGE_SCORES | st.floats(allow_nan=False, allow_infinity=False),
    "probability": EDGE_SCORES | st.floats(0.0, 1.0),
}


@st.composite
def score_matrices(draw):
    users, items = draw(IDS), draw(IDS)
    semantics = draw(st.sampled_from(sorted(SCORES)))
    n = len(users) * len(items)
    S = draw(st.lists(SCORES[semantics], min_size=n, max_size=n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    shape = (len(users), len(items))
    return ScoreMatrix(users, items, np.reshape(S, shape), np.reshape(valid, shape), semantics=semantics)


def _store(path, **arrays):
    """The store ``path`` of ``arrays``, ids given as stored (their lines' UTF-8 bytes)."""
    np.savez(path, **arrays)
    return path


# A fault in a one-user, one-item store: its id, its edit of the store's members (given
# the float matrix member's name), and the message, formatted with the store's fields.
STORE_FAULTS = [
    ("member-missing", lambda a, v: {k: a[k] for k in a if k != "item_ids"}, "not a readable {kind} store .KeyError"),
    ("int-dtype", lambda a, v: {**a, v: a[v].astype(np.int64)}, "member {values} is 2-d int64"),
    ("wrong-ndim", lambda a, v: {**a, v: a[v][0]}, "member {values} is 1-d float64"),
    ("pickled", lambda a, v: {**a, "user_ids": np.array(["u"], dtype=object)},
     "not a readable {kind} store .ValueError: Object arrays cannot be loaded"),
    ("float-ids", lambda a, v: {**a, "user_ids": np.array([])}, "member user_ids is 1-d float64"),
    # A str array of end-marked ids: an id table as older versions stored it.
    ("str-ids", lambda a, v: {**a, "user_ids": np.array(["u."])}, "member user_ids is 1-d <U2, expected 1-d uint8"),
    ("shape", lambda a, v: {**a, v: np.repeat(a[v], 2, axis=0)}, "{shape}"),
    ("nan", lambda a, v: {**a, v: np.full_like(a[v], np.nan)}, "{nan}"),
    ("unlisted-member", lambda a, v: {**a, "extra": np.zeros(1)}, "member extra is not one of "),
]


class StoreFaults:
    """Faults that make a binary store of any kind a ParseError naming it; each subclass is one kind.

    ``write`` writes a valid store ``FILE`` of the kind (and whatever it is read with),
    ``read`` reads it back, ``ARRAYS`` are the members of a valid one-user, one-item
    store, ``VALUES`` names its float matrix member, and ``SHAPE`` and ``NAN`` are the
    messages for a second row and a NaN in that member.
    """

    @pytest.mark.parametrize("edit, message", [fault[1:] for fault in STORE_FAULTS],
                             ids=[fault[0] for fault in STORE_FAULTS])
    def test_fault_is_a_parse_error_naming_the_store(self, tmp_path, edit, message):
        self.write(tmp_path)
        path = _store(tmp_path / self.FILE, **edit(self.ARRAYS, self.VALUES))
        message = message.format(kind=self.KIND, values=self.VALUES, shape=self.SHAPE, nan=self.NAN)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: {message}"):
            self.read(tmp_path)

    @pytest.mark.parametrize("cut", [0, 10, -1])
    def test_truncated_store_is_a_parse_error(self, tmp_path, cut):
        self.write(tmp_path)
        path = tmp_path / self.FILE
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: not a readable {self.KIND} store"):
            self.read(tmp_path)

    def test_compressed_member_is_rejected(self, tmp_path):
        self.write(tmp_path)
        np.savez_compressed(tmp_path / self.FILE, **self.ARRAYS)
        with pytest.raises(ParseError, match=f"member {self.VALUES} is compressed or encrypted"):
            self.read(tmp_path)


class TestScoreStore(StoreFaults):
    """The binary store in-processing writes: exact round trips, and a ParseError naming it for any fault."""

    FILE, KIND, VALUES = "scores.npz", "score", "S"
    ARRAYS = {"S": np.zeros((1, 1)), "valid": np.ones((1, 1), bool),
              "user_ids": np.frombuffer(b"u\n", np.uint8), "item_ids": np.frombuffer(b"i\n", np.uint8)}
    SHAPE, NAN = "score array shape does not match", "non-finite score"

    @staticmethod
    def write(directory):
        write_scores(synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)[1], directory)

    read = staticmethod(read_scores)

    @settings(max_examples=150, deadline=None)
    @given(score_matrices())
    @example(ScoreMatrix(["", "u\x00", "é\x00\x00"], ["i\x00", "ü"], [[-0.0, 5e-324], [0.5, 1.0], [0.0, 0.0]],
                         [[True, True], [False, True], [False, False]], semantics="probability"))
    @example(ScoreMatrix([], [], np.zeros((0, 0))))
    @example(ScoreMatrix(["u"], [], np.zeros((1, 0))))
    @example(ScoreMatrix([" ", "\r"], ["\ud800"], np.zeros((2, 1))))
    def test_round_trip_is_bit_exact(self, scores):
        with tempfile.TemporaryDirectory() as tmp:
            write_scores(scores, tmp)
            back = read_scores(tmp)
        assert back == scores and back.semantics == scores.semantics
        assert (back.user_ids, back.item_ids) == (scores.user_ids, scores.item_ids)
        assert np.array_equal(back.valid, scores.valid)
        assert back.S.tobytes() == scores.S.tobytes()

    @pytest.mark.parametrize("table", ["user_ids", "item_ids"])
    def test_line_break_id_is_a_format_error(self, tmp_path, table):
        _write_scores(tmp_path, write_scores_tsv)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        ids = {"user_ids": ["u"], "item_ids": ["i"], table: ["a\nb"]}
        message = f"cannot write {table} 'a\\nb' to {tmp_path / 'scores.npz'}: it holds one of '\\n'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            write_scores(ScoreMatrix(**ids, scores=np.ones((1, 1)), semantics="raw"), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_writing_one_form_removes_the_other(self, tmp_path):
        _, scores = synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)
        names = lambda: sorted(p.name for p in tmp_path.iterdir())
        write_scores_tsv(scores, tmp_path)
        write_scores(scores, tmp_path)
        assert names() == ["scores.meta.yaml", "scores.npz"]
        write_scores_tsv(scores, tmp_path)
        assert names() == ["scores.meta.yaml", "scores.tsv"]
        assert read_scores(tmp_path) == scores

    def test_store_is_read_before_the_table(self, tmp_path):
        _, scores = synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)
        write_scores(scores, tmp_path)
        (tmp_path / "scores.tsv").write_text("not a score table\n", encoding="utf-8")
        assert read_scores(tmp_path) == scores

    @pytest.mark.parametrize("writer", [write_scores, write_scores_tsv])
    def test_unknown_semantics_names_the_sidecar(self, tmp_path, writer):
        writer(synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)[1], tmp_path)
        meta = tmp_path / "scores.meta.yaml"
        meta.write_text("semantics: logit\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(meta))}: unknown score semantics 'logit'$"):
            read_scores(tmp_path)


@st.composite
def models(draw):
    users, items = draw(IDS), draw(IDS)
    dim, use_item_bias = draw(st.integers(1, 3)), draw(st.booleans())
    values = lambda *shape: np.reshape(draw(st.lists(SCORES["raw"], min_size=math.prod(shape),
                                                     max_size=math.prod(shape))), shape).astype(float)
    bias = values(len(items)) if use_item_bias else None
    config = TrainConfig(dim=dim, use_item_bias=use_item_bias)
    return MFModel(users, items, values(len(users), dim), values(len(items), dim), bias, config, [0.5])


class TestModelStore(StoreFaults):
    """The binary store a checkpoint keeps its embeddings in, beside its manifest."""

    FILE, KIND, VALUES = "model.npz", "model", "user_vecs"
    ARRAYS = {"user_vecs": np.zeros((1, 2)), "item_vecs": np.zeros((1, 2)),
              "user_ids": np.frombuffer(b"u\n", np.uint8), "item_ids": np.frombuffer(b"i\n", np.uint8)}
    SHAPE, NAN = "user embedding shape mismatch", "non-finite model parameter"

    @staticmethod
    def write(directory, use_item_bias=False):
        config = TrainConfig(dim=2, use_item_bias=use_item_bias)
        bias = np.zeros(1) if use_item_bias else None
        save_model(MFModel(["u0"], ["i0"], np.zeros((1, 2)), np.zeros((1, 2)), bias, config), directory)

    read = staticmethod(load_model)

    @settings(max_examples=150, deadline=None)
    @given(models())
    @example(MFModel(["", "u\x00", "é\x00\x00"], ["i\x00", "ü"], np.array([[-0.0], [5e-324], [2.5e-310]]),
                     np.array([[-0.0], [1.0]]), np.array([5e-324, -0.0]), TrainConfig(dim=1, use_item_bias=True)))
    @example(MFModel([], [], np.zeros((0, 2)), np.zeros((0, 2)), None, TrainConfig(dim=2)))
    @example(MFModel([" ", "\r"], ["\ud800"], np.zeros((2, 1)), np.zeros((1, 1)), None, TrainConfig(dim=1)))
    def test_round_trip_is_bit_exact(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            save_model(model, tmp)
            back = load_model(tmp)
        assert (back.user_ids, back.item_ids) == (model.user_ids, model.item_ids)
        assert back.config == model.config and back.loss_curve == model.loss_curve
        for name in ("user_vecs", "item_vecs", "item_bias"):
            got, expected = getattr(back, name), getattr(model, name)
            assert (got is None and expected is None) or (got.dtype == expected.dtype and got.shape == expected.shape
                                                          and got.tobytes() == expected.tobytes())

    @pytest.mark.parametrize("table", ["user_ids", "item_ids"])
    def test_line_break_id_is_a_format_error(self, tmp_path, table):
        self.write(tmp_path, use_item_bias=True)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        ids = {"user_ids": ["u"], "item_ids": ["i"], table: ["a\nb"]}
        message = f"cannot write {table} 'a\\nb' to {tmp_path / 'model.npz'}: it holds one of '\\n'"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            save_model(MFModel(**ids, user_vecs=np.ones((1, 2)), item_vecs=np.ones((1, 2)), item_bias=None,
                               config=TrainConfig(dim=2)), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_bias_the_manifest_does_not_declare_is_a_parse_error(self, tmp_path):
        self.write(tmp_path)
        path = _store(tmp_path / "model.npz", **self.ARRAYS, item_bias=np.zeros(1))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: member item_bias is not one of "):
            load_model(tmp_path)

    def test_declared_bias_that_is_missing_is_a_parse_error(self, tmp_path):
        self.write(tmp_path, use_item_bias=True)
        path = _store(tmp_path / "model.npz", **self.ARRAYS)
        message = "not a readable model store (KeyError: \"There is no item named 'item_bias.npy' in the archive\")"
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_model(tmp_path)


def _write_scores(directory, writer):
    writer(synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)[1], directory)


def _write_dataset(directory):
    write_dataset(synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))[0], directory)


def _write_checkpoint(directory):
    config = TrainConfig(dim=2, use_item_bias=True)
    model = MFModel(["u0", "u1", "u2"], ["i0"], np.ones((3, 2)) / 3, np.ones((1, 2)), np.zeros(1), config)
    save_model(model, directory)


def _write_run(directory):
    run = run_of({"q2": [("d3", 0.5)], "q1": [("d1", 2.0), ("d2", 1 / 3)]})
    write_run_file(run, directory / "rerank-x.run", tag="x")


def test_run_file_bytes(tmp_path):
    _write_run(tmp_path)
    assert (tmp_path / "rerank-x.run").read_bytes() == (
        b"q1 Q0 d1 1 2.0 x\nq1 Q0 d2 2 0.3333333333333333 x\nq2 Q0 d3 1 0.5 x\n"
    )


# writer -> (writes its files into a directory, the files)
WRITERS = {
    "run-file": (_write_run, ["rerank-x.run"]),
    "store": (lambda d: _write_scores(d, write_scores), ["scores.meta.yaml", "scores.npz"]),
    "score-table": (lambda d: _write_scores(d, write_scores_tsv), ["scores.meta.yaml", "scores.tsv"]),
    "dataset": (_write_dataset, ["manifest.yaml", "users.tsv", "items.tsv", "train.tsv", "valid.tsv", "test.tsv"]),
    "checkpoint": (_write_checkpoint, ["manifest.yaml", "model.npz"]),
}
WRITES = [(writer, name) for writer, (_, names) in WRITERS.items() for name in names]


@pytest.mark.parametrize("writer, name", WRITES, ids=[f"{w}-{n}" for w, n in WRITES])
def test_write_failing_midway_leaves_previous_files_whole(tmp_path, monkeypatch, writer, name):
    write, names = WRITERS[writer]
    write(tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == sorted(names)
    failed = []
    for method in ("write_text", "write_bytes"):

        def half_then_full_disk(path, data, *args, original=getattr(Path, method), **kwargs):
            if path.name != f".{name}.{os.getpid()}.tmp":
                return original(path, data, *args, **kwargs)
            original(path, data[: len(data) // 2], *args, **kwargs)
            failed.append(name)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, method, half_then_full_disk)

    class HalfThenFullDisk(io.FileIO):  # a streamed write: half of its first block lands, then the disk is full
        def write(self, data):
            if name not in failed:
                super().write(bytes(data)[: len(data) // 2])
                failed.append(name)
            raise OSError(28, "No space left on device")

    def open_half_then_full_disk(path, mode="r", *args, original=Path.open, **kwargs):
        if path.name != f".{name}.{os.getpid()}.tmp" or mode != "wb":  # write_text and write_bytes open too
            return original(path, mode, *args, **kwargs)
        return HalfThenFullDisk(path, mode)

    monkeypatch.setattr(Path, "open", open_half_then_full_disk)
    with pytest.raises(IoError, match="No space left on device"):
        write(tmp_path)
    assert failed == [name]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


BREAKS = {"tab": "\t", "newline": "\n", "carriage-return": "\r"}


def _refused(directory, write, what, kind, bad, reason="it holds one of "):
    """``write()`` raises the FormatError naming ``bad`` and the table ``what``, leaving ``directory`` as it was."""
    before = {p.name: p.read_bytes() for p in directory.iterdir()}
    message = f"cannot write {kind} {bad!r} to {directory / what}: {reason}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
        write()
    assert {p.name: p.read_bytes() for p in directory.iterdir()} == before


@pytest.mark.parametrize("kind", ["user id", "item id"])
@pytest.mark.parametrize("brk", BREAKS.values(), ids=BREAKS)
def test_score_table_refuses_an_id_that_would_not_read_back(tmp_path, kind, brk):
    _write_scores(tmp_path, write_scores)  # a store that the refused table write must not remove
    ids = {"user id": ["u0", "u1"], "item id": ["i0", "i1"]}
    bad = ids[kind][1] = f"x{brk}1"
    matrix = ScoreMatrix(ids["user id"], ids["item id"], [[0.5, 0.25], [0.75, 1.0]])
    _refused(tmp_path, lambda: write_scores_tsv(matrix, tmp_path), "scores.tsv", kind, bad)


def _tiny_dataset(user="u1", user_group="f", item="i1", item_group="g1"):
    catalog = make_catalog({"i0": {"g0"}, item: {item_group}}, users=["u0", user], user_groups={user: user_group})
    log = InteractionLog(catalog.users, catalog.items, [0, 1], [0, 1], [1.0, 1.0], [1, 2])
    return SplitDataset(log, log.take([]), log.take([]), catalog, ((0.8, 0.1, 0.1), 1))


# (field of _tiny_dataset, what the error calls it, the table it goes into, the characters it may not hold)
DATASET_FIELDS = [
    ("user", "user id", "users.tsv", BREAKS),
    ("user_group", "user group", "users.tsv", BREAKS),
    ("item", "item id", "items.tsv", BREAKS),
    ("item_group", "item group", "items.tsv", {**BREAKS, "bar": "|"}),
]
DATASET_BREAKS = [(field, kind, what, brk) for field, kind, what, breaks in DATASET_FIELDS for brk in breaks.values()]


@pytest.mark.parametrize(
    "field, kind, what, brk", DATASET_BREAKS,
    ids=[f"{field}-{name}" for field, _, _, breaks in DATASET_FIELDS for name in breaks],
)
def test_dataset_refuses_an_id_or_group_that_would_not_read_back(tmp_path, field, kind, what, brk):
    _write_dataset(tmp_path)
    bad = f"x{brk}1"
    _refused(tmp_path, lambda: write_dataset(_tiny_dataset(**{field: bad}), tmp_path), what, kind, bad)


def test_dataset_refuses_a_group_that_no_item_belongs_to(tmp_path):
    _write_dataset(tmp_path)
    item_groups = {"i0": frozenset({"g0"}), "i1": frozenset({"g1"})}
    catalog = Catalog(users=["u0"], items=["i0", "i1"], groups=["g0", "g1", "g2"], item_groups=item_groups)
    log = InteractionLog(catalog.users, catalog.items, [0], [0], [1.0], [1])
    dataset = SplitDataset(log, log.take([]), log.take([]), catalog, ((0.8, 0.1, 0.1), 1))
    _refused(tmp_path, lambda: write_dataset(dataset, tmp_path), "items.tsv", "item group", "g2",
             "no item belongs to it")


UNSPLITTABLE = {"space": "d 1", "tab": "d\t1", "line-separator": "d\u20281", "empty": ""}


@pytest.mark.parametrize("kind", ["query id", "doc id", "tag"])
@pytest.mark.parametrize("bad", UNSPLITTABLE.values(), ids=UNSPLITTABLE)
def test_run_file_refuses_an_id_that_would_not_read_back(tmp_path, kind, bad):
    _write_run(tmp_path)  # a run file that the refused write must leave as it was
    ids = {"query id": "q1", "doc id": "d2", "tag": "x"}
    ids[kind] = bad
    run = run_of({"q0": [("d0", 2.0)], ids["query id"]: [("d1", 1.0), (ids["doc id"], 0.5)]})
    write = lambda: write_run_file(run, tmp_path / "rerank-x.run", tag=ids["tag"])
    _refused(tmp_path, write, "rerank-x.run", kind, bad, "it is empty or holds whitespace")


LONE_SURROGATE = "x\ud8001"  # a str that strict UTF-8 cannot encode


@pytest.mark.parametrize("kind", ["user id", "item id"])
def test_score_table_refuses_an_id_holding_a_lone_surrogate(tmp_path, kind):
    _write_scores(tmp_path, write_scores)  # a store and sidecar that the refused table write must leave as they were
    ids = {"user id": ["u0", "u1"], "item id": ["i0", "i1"]}
    ids[kind][1] = LONE_SURROGATE
    matrix = ScoreMatrix(ids["user id"], ids["item id"], [[0.5, 0.25], [0.75, 1.0]])
    write = lambda: write_scores_tsv(matrix, tmp_path)
    _refused(tmp_path, write, "scores.tsv", kind, LONE_SURROGATE, "it holds a lone surrogate")
    write_scores(matrix, tmp_path)  # the binary store keeps it
    assert read_scores(tmp_path) == matrix


@pytest.mark.parametrize("field, kind, what", [f[:3] for f in DATASET_FIELDS], ids=[f[0] for f in DATASET_FIELDS])
def test_dataset_refuses_an_id_or_group_holding_a_lone_surrogate(tmp_path, field, kind, what):
    _write_dataset(tmp_path)
    write = lambda: write_dataset(_tiny_dataset(**{field: LONE_SURROGATE}), tmp_path)
    _refused(tmp_path, write, what, kind, LONE_SURROGATE, "it holds a lone surrogate")


@pytest.mark.parametrize("kind", ["query id", "doc id", "tag"])
def test_run_file_refuses_an_id_holding_a_lone_surrogate(tmp_path, kind):
    _write_run(tmp_path)
    ids = {"query id": "q1", "doc id": "d2", "tag": "x"}
    ids[kind] = LONE_SURROGATE
    run = run_of({"q0": [("d0", 2.0)], ids["query id"]: [("d1", 1.0), (ids["doc id"], 0.5)]})
    write = lambda: write_run_file(run, tmp_path / "rerank-x.run", tag=ids["tag"])
    _refused(tmp_path, write, "rerank-x.run", kind, LONE_SURROGATE, "it holds a lone surrogate")


def test_ids_holding_a_bar_or_spaces_still_round_trip(tmp_path):
    dataset = _tiny_dataset(user="u 1", user_group="f|m", item="i|1", item_group="g 1")
    write_dataset(dataset, tmp_path)
    assert read_dataset(tmp_path) == dataset
    matrix = ScoreMatrix(["u 1"], ["i|1"], [[0.5]])
    write_scores_tsv(matrix, tmp_path)
    assert read_scores(tmp_path) == matrix


class TestScores:
    @staticmethod
    def stored(directory, body, semantics=None):
        (directory / "scores.tsv").write_text("user_id\titem_id\tscore\n" + body, encoding="utf-8")
        if semantics:
            (directory / "scores.meta.yaml").write_text(f"semantics: {semantics}\n", encoding="utf-8")
        return directory

    def test_repeated_pair_names_file_and_both_lines(self, tmp_path):
        body = "u1\ti1\t0.5\nu1\ti2\t0.1\n\nu2\ti1\t0.3\nu1\ti2\t0.7\nu1\ti2\t0.9\n"
        with pytest.raises(ParseError, match=r"scores\.tsv: lines 3 and 6: repeated score for \('u1', 'i2'\)"):
            read_scores(self.stored(tmp_path, body))

    @pytest.mark.parametrize("bad", ["u1\ti1", "u1\ti1\t0.5\textra", "u1\ti1\tabc"])
    def test_malformed_line_names_file(self, tmp_path, bad):
        with pytest.raises(ParseError, match=r"scores\.tsv: line 3"):
            read_scores(self.stored(tmp_path, f"u0\ti0\t0.1\n{bad}\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected(self, tmp_path, bad):
        with pytest.raises(InvariantViolation, match=r"non-finite score for \('u1', 'i1'\)"):
            read_scores(self.stored(tmp_path, f"u0\ti0\t0.1\nu1\ti1\t{bad}\n"))

    def test_probability_out_of_range_rejected(self, tmp_path):
        with pytest.raises(InvariantViolation, match="outside"):
            read_scores(self.stored(tmp_path, "u0\ti0\t0.1\nu1\ti1\t1.5\n", semantics="probability"))

    @pytest.mark.parametrize("limit", [5, 6])
    def test_table_past_the_cell_limit_names_its_shape(self, tmp_path, monkeypatch, limit):
        monkeypatch.setattr("fairrank.ingest.SCORE_CELL_LIMIT", limit)
        directory = self.stored(tmp_path, "u1\ti1\t0.5\nu2\ti2\t0.1\nu1\ti3\t0.3\n")
        if limit == 6:
            assert read_scores(directory).n_valid.tolist() == [2, 1]
            return
        with pytest.raises(ParseError, match=r"scores\.tsv: 2 users x 3 items make 6 score cells, more than the limit "
                                             r"of 5$"):
            read_scores(directory)

    def test_tables_sorted_whatever_the_line_order(self, tmp_path):
        scores = read_scores(self.stored(tmp_path, "u2\tib\t0.5\nu1\tic\t-1.0\nu2\tia\t0.25\n"))
        assert scores.user_ids == ["u1", "u2"] and scores.item_ids == ["ia", "ib", "ic"]
        assert scores.row("u1") == {"ic": -1.0}
        assert scores.row("u2") == {"ia": 0.25, "ib": 0.5}


@pytest.mark.parametrize("seed", [77, 1013])
def test_generated_rec_inputs_match_recorded_bytes(tmp_path, seed):
    """The rec workloads' inputs (``write_scores`` among the writers) keep the bytes they were recorded with."""
    recorded = json.loads(PROVENANCE.read_text(encoding="utf-8"))["inputs"]["rec-rerank"][str(seed)]["sha256"]
    init_workspace(tmp_path, n_users=150, n_items=500, n_groups=10, seed=seed)
    written = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    # bench.yaml is the benchmark's run config, written by perfbench/run.py, not by the generator.
    assert written == {name: digest for name, digest in recorded.items() if name != "bench.yaml"}


@settings(max_examples=100)
@given(codes=st.lists(st.integers(0, 39), max_size=60))
@example(codes=[])
def test_present_ids_are_the_sorted_distinct_ids_a_column_names(codes):
    ids = [f"id{(7 * j) % 41:02d}" for j in range(40)]  # codes are not in id order
    assert ingest._present(ids, np.array(codes, dtype=np.int32)) == sorted({ids[c] for c in codes})


def test_synth_leaves_numpy_ma_unimported(tmp_path):
    """``python -m fairrank.synth`` does not pay for importing ``numpy.ma`` (``np.unique`` imports it)."""
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('fairrank.synth', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    args = ["--root", str(tmp_path), "--users", "20", "--items", "15", "--groups", "3"]
    src = str(Path(ingest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "datasets" / "synth" / "scores.tsv").exists()


def _run_python(script: str, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(ingest.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)


def test_synth_loads_only_the_modules_it_imports(tmp_path):
    """The package resolves its names on first use, so ``python -m fairrank.synth`` compiles no
    trainer or re-ranker."""
    script = (
        "import runpy, sys\n"
        "try:\n"
        "    runpy.run_module('fairrank.synth', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'fairrank')))\n"
    )
    done = _run_python(script, "--root", str(tmp_path), "--users", "20", "--items", "15", "--groups", "3")
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.splitlines()[-1].split()
    assert loaded == ["fairrank", "fairrank.core", "fairrank.errors", "fairrank.ingest", "fairrank.store"]


def test_every_package_name_resolves():
    script = (
        "import fairrank\n"
        "names = {}\n"
        "exec('from fairrank import *', names)\n"
        "assert sorted(set(names) - {'__builtins__'}) == sorted(fairrank.__all__), names\n"
        "for name in fairrank.__all__:\n"
        "    value = getattr(fairrank, name)\n"
        "    assert value.__name__ == name and value.__module__.startswith('fairrank.'), (name, value)\n"
        "try:\n"
        "    fairrank.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    done = _run_python(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "module 'fairrank' has no attribute 'no_such_name'\n"


class TestItemGroups:
    def test_parse(self, tmp_path):
        path = tmp_path / "groups.tsv"
        path.write_text("i1\tg1|g2\ni2\tg1\n", encoding="utf-8")
        groups = parse_item_groups(path)
        assert groups == {"i1": frozenset({"g1", "g2"}), "i2": frozenset({"g1"})}

    def test_build_catalog(self, tmp_path):
        log = log_of([("u1", "i1", 1.0, 1)])
        catalog = build_catalog(log, {"i1": frozenset({"g1"}), "i2": frozenset({"g2"})})
        assert catalog.users == ["u1"]
        assert catalog.groups == ["g1", "g2"]


class TestUserGroups:
    def test_parse(self, tmp_path):
        path = tmp_path / "users.tsv"
        path.write_text("u1\tg1\n\nu2\tg2\n", encoding="utf-8")
        assert parse_user_groups(path) == {"u1": "g1", "u2": "g2"}

    @pytest.mark.parametrize("bad", ["u3", "u3\tg1\textra"])
    def test_malformed_line_named(self, tmp_path, bad):
        path = tmp_path / "users.tsv"
        path.write_text(f"u1\tg1\nu2\tg2\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"users\.tsv: line 3"):
            parse_user_groups(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            parse_user_groups(tmp_path / "absent.tsv")

    def test_repeated_dataset_user_names_both_lines(self, tmp_path):
        dataset, _ = synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))
        write_dataset(dataset, tmp_path)
        users = tmp_path / "users.tsv"
        lines = users.read_text(encoding="utf-8").splitlines()
        users.write_text("\n".join([*lines, lines[1]]) + "\n", encoding="utf-8")
        user = lines[1].split("\t")[0]
        with pytest.raises(ParseError, match=rf"^{re.escape(str(users))}: lines 2 and {len(lines) + 1}: repeated user "
                                             rf"{re.escape(repr(user))}$"):
            read_dataset(tmp_path)

    def test_malformed_dataset_users_line_named(self, tmp_path):
        dataset, _ = synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))
        write_dataset(dataset, tmp_path)
        users = tmp_path / "users.tsv"
        lines = users.read_text(encoding="utf-8").splitlines()
        lines[2] += "\textra"
        users.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"users\.tsv: line 3"):
            read_dataset(tmp_path)


class TestErrorsNameTheirFile:
    """Every malformed line is reported as ``<path>: line N: ...``."""

    HEADER = "user_id\titem_id\tlabel\ttimestamp\n"

    @pytest.mark.parametrize(
        "reader, text, error, lineno",
        [
            (parse_interactions, HEADER + "u1\ti1\t1\t1\nu1\ti2\t1\n", ParseError, 3),
            (parse_interactions, HEADER + "u1\ti1\t1\t1\nu1\ti2\tx\t2\n", ParseError, 3),
            (parse_interactions, HEADER + "u1\ti1\t7\t1\n", ParseError, 2),
            (parse_item_groups, "i1\tg1\ni2\tg1\tg2\n", ParseError, 2),
            (parse_item_groups, "i1\tg1\ni2\t|\n", ParseError, 2),
            (parse_user_groups, "u1\tg1\n\nu2\n", ParseError, 3),
            (parse_diversity_qrels, "q1 t1 d1 1\nq1 t1 d2\n", ParseError, 2),
            (parse_diversity_qrels, "q1 t1 d1 1\n\nq1 t1 d2 2\n", ParseError, 3),
            (parse_run_file, "q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.4\n", FormatError, 2),
            (parse_run_file, "q1 Q0 d1 1 0.5 t\nq1 Q0 d2 x 0.4 t\n", FormatError, 2),
            (parse_run_file, "q1 Q0 d1 1 nan t\n", FormatError, 1),
            (parse_run_file, "q1 Q0 d1 2 0.5 t\nq1 Q0 d2 1 0.4 t\n", FormatError, 2),
            (parse_run_file, "q1 Q0 d1 1 0.5 t\nq1 Q0 d1 2 0.4 t\n", FormatError, 2),
            # A field that equals the chunk reader's line-end mark, in a line one field too long.
            (parse_diversity_qrels, "q1 t1 d1 1 \0\nq1 t1 d2\n", ParseError, 1),
            (parse_run_file, "q1 Q0 d1 1 0.5 t \0\nq1 Q0 d2 2 0.4\n", FormatError, 1),
        ],
        ids=[
            "interactions-fields", "interactions-value", "interactions-label", "item_groups-fields",
            "item_groups-empty", "user_groups", "qrels-fields", "qrels-relevance", "run-columns", "run-rank",
            "run-score", "run-order", "run-duplicate", "qrels-mark-field", "run-mark-field",
        ],
    )
    def test_reader(self, tmp_path, reader, text, error, lineno):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=rf"^{re.escape(str(path))}: line {lineno}: "):
            reader(path)

    def test_split_count_names_the_directory(self, tmp_path):
        dataset, _ = synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))
        write_dataset(dataset, tmp_path)
        manifest = tmp_path / "manifest.yaml"
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("test: ", "test: 1"), encoding="utf-8")
        with pytest.raises(FormatError, match=rf"^{re.escape(str(tmp_path))}: test split has \d+ records"):
            read_dataset(tmp_path)


def _stored_dataset(directory):
    write_dataset(synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))[0], directory)
    return directory / "manifest.yaml", read_dataset, "split"


def _stored_scores(directory):
    write_scores(synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)[1], directory)
    return directory / "scores.meta.yaml", read_scores, "semantics"


def _stored_checkpoint(directory):
    model = MFModel(["u0"], ["i0"], np.zeros((1, 2)), np.zeros((1, 2)), None, TrainConfig(dim=2))
    save_model(model, directory)
    return directory / "manifest.yaml", load_model, "dim"


class TestYamlSidecars:
    """The dataset manifest, the score sidecar and the checkpoint manifest are each read as a mapping."""

    @pytest.mark.parametrize("store", [_stored_dataset, _stored_scores, _stored_checkpoint],
                             ids=["dataset", "scores", "checkpoint"])
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda text, key: "a: [unclosed\n", "not valid YAML"),
            (lambda text, key: "- 1\n- 2\n", "is not a mapping"),
            (lambda text, key: yaml.safe_dump({k: v for k, v in yaml.safe_load(text).items() if k != key}),
             "has no '{key}' entry"),
        ],
        ids=["invalid", "list", "missing-key"],
    )
    def test_corrupt_sidecar_is_a_parse_error_naming_it(self, tmp_path, store, corrupt, message):
        path, reader, key = store(tmp_path)
        path.write_text(corrupt(path.read_text(encoding="utf-8"), key), encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: .*{re.escape(message.format(key=key))}"):
            reader(tmp_path)


class TestReadersAndWritersRaiseIoError:
    def test_missing_score_table(self, tmp_path):
        with pytest.raises(IoError, match=rf"^score file not found: {re.escape(str(tmp_path / 'scores.tsv'))}$"):
            read_scores(tmp_path)

    def test_directory_in_place_of_a_file(self, tmp_path):
        with pytest.raises(IoError, match=rf"^cannot read run file {re.escape(str(tmp_path))}: "):
            parse_run_file(tmp_path)

    def test_write_run_file_under_a_regular_file(self, tmp_path):
        (tmp_path / "file").write_text("", encoding="utf-8")
        with pytest.raises(IoError, match="cannot write run file to"):
            write_run_file(run_of({"q1": [("d1", 1.0)]}), tmp_path / "file" / "x.run", tag="t")


class TestInvalidUtf8:
    """A file that is not UTF-8 is a ParseError naming it, whichever reader meets it."""

    @pytest.mark.parametrize(
        "reader, text",
        [
            (parse_interactions, "user_id\titem_id\tlabel\ttimestamp\nu1\ti1\t1\t1\n"),
            (parse_item_groups, "i1\tg1\ni2\tg2\n"),
            (parse_user_groups, "u1\tg1\nu2\tg2\n"),
            (parse_diversity_qrels, "q1 t1 d1 1\nq1 t2 d2 1\n"),
            (parse_run_file, "q1 Q0 d1 1 0.5 tag\nq1 Q0 d2 2 0.4 tag\n"),
        ],
        ids=["interactions", "item_groups", "user_groups", "qrels", "run_file"],
    )
    def test_parser(self, tmp_path, reader, text):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        with_bad_line_2(path)
        with pytest.raises(ParseError, match=r"input\.txt: not valid UTF-8"):
            reader(path)

    @pytest.mark.parametrize("name", ["manifest.yaml", "users.tsv", "items.tsv", "train.tsv"])
    def test_dataset_file(self, tmp_path, name):
        dataset, _ = synthetic_dataset(n_users=10, n_items=12, n_groups=2, seed=3, per_user=(6, 8))
        write_dataset(dataset, tmp_path)
        with_bad_line_2(tmp_path / name)
        with pytest.raises(ParseError, match=rf"{name}: not valid UTF-8"):
            read_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["scores.tsv", "scores.meta.yaml"])
    def test_score_file(self, tmp_path, name):
        _, scores = synthetic_dataset(n_users=5, n_items=6, n_groups=2, seed=5)
        write_scores_tsv(scores, tmp_path)
        with_bad_line_2(tmp_path / name)
        with pytest.raises(ParseError, match=rf"{name}: not valid UTF-8"):
            read_scores(tmp_path)


def test_replace_file_leaves_a_foreign_temporary_alone(tmp_path):
    """Two processes writing one path each write their own temporary: another's is neither truncated nor removed."""
    target, foreign = tmp_path / "entry.npz", tmp_path / ".entry.npz.tmp"
    foreign.write_bytes(b"half of another process's entry")
    replace_file(target, "whole")
    assert target.read_bytes() == b"whole"
    assert foreign.read_bytes() == b"half of another process's entry"
    assert sorted(p.name for p in tmp_path.iterdir()) == [".entry.npz.tmp", "entry.npz"]


def test_replace_file_removes_the_temporaries_of_processes_no_longer_running(tmp_path):
    """A temporary whose pid runs no process (1 << 22 is past every Linux pid_max) is removed; one of a running
    process, or not named by a pid, is left."""
    kept = [tmp_path / f".entry.npz.{os.getppid()}.tmp", tmp_path / ".entry.npz.x1.tmp", tmp_path / ".other.1.tmp"]
    for temporary in [*kept, tmp_path / f".entry.npz.{1 << 22}.tmp"]:
        temporary.write_bytes(b"half")
    replace_file(tmp_path / "entry.npz", "whole")
    assert sorted(tmp_path.iterdir()) == sorted([*kept, tmp_path / "entry.npz"])


LINES_STORE = {"ids": ("lines", 1)}


@pytest.mark.parametrize("ids", [[], [""], ["a", "", "b\0", "\u00e9 c"]], ids=["none", "empty-id", "mixed"])
def test_lines_id_table_round_trips(tmp_path, ids):
    write_store(tmp_path / "s.npz", LINES_STORE, SimpleNamespace(ids=ids))
    assert read_store(tmp_path / "s.npz", "test", LINES_STORE, lambda ids: ids) == ids


def test_lines_id_table_refuses_an_id_with_a_line_break(tmp_path):
    message = f"cannot write ids 'b\\nc' to {tmp_path / 's.npz'}: it holds one of '\\n' and would not read back"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        write_store(tmp_path / "s.npz", LINES_STORE, SimpleNamespace(ids=["a", "b\nc"]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stored, fault", [
    (np.frombuffer(b"a\nb", np.uint8), "member ids does not end its last id with a line break"),
    (np.frombuffer(b"a\n\xff\n", np.uint8), "UnicodeDecodeError"),
    (np.array(["a."]), "member ids is 1-d <U2, expected 1-d uint8"),
], ids=["unended", "not-utf8", "str-array"])
def test_damaged_lines_id_table_is_a_parse_error(tmp_path, stored, fault):
    np.savez(tmp_path / "s.npz", ids=stored)
    with pytest.raises(ParseError, match=re.escape(fault)):
        read_store(tmp_path / "s.npz", "test", LINES_STORE, lambda ids: ids)


def _searchgen():
    """perfbench/searchgen.py, the search workload's input generator."""
    spec = importlib.util.spec_from_file_location("searchgen", PROVENANCE.parent / "searchgen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_inputs(tmp_path_factory):
    """The seed-77 inputs of the benchmark's workloads: the rec workloads' data root and the search run and qrels."""
    root = tmp_path_factory.mktemp("bench77")
    init_workspace(root / "rec", n_users=150, n_items=500, n_groups=10, seed=77)
    _searchgen().write_search_inputs(root / "input.run", root / "qrels", 77)
    return root


def _small(directory, name, text):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return path


def _score_table(directory, body, semantics="raw"):
    directory.mkdir(exist_ok=True)
    _small(directory, "scores.meta.yaml", f"semantics: {semantics}\n")
    _small(directory, "scores.tsv", "user_id\titem_id\tscore\n" + body)
    return directory


# A parse-cache case: (entry kind, writes the input under a directory and returns what the reader reads, reader).
CACHED = {
    "scores-seed77": ("scores", lambda d, bench: bench / "rec" / "datasets" / "synth", read_scores),
    "scores-probability": ("scores", lambda d, bench: _score_table(d / "s", "u2\ti1\t0.5\nu1\ti2\t1.0\n",
                                                                   "probability"), read_scores),
    "run-seed77-truncate-50": ("run", lambda d, bench: bench / "input.run", parse_run_file),
    "run-seed77-truncate-none": ("run", lambda d, bench: bench / "input.run",
                                 lambda p, cache: parse_run_file(p, None, cache=cache)),
    "run-seed77-truncate-minus-1": ("run", lambda d, bench: bench / "input.run",
                                    lambda p, cache: parse_run_file(p, -1, cache=cache)),
    # truncate -1 drops q1's only doc: a query with no ranked doc keeps an empty row.
    "run-empty-row": ("run", lambda d, bench: _small(d, "run", "q1 Q0 d1 1 0.5 t\nq2 Q0 d2 1 0.4 t\n"
                                                                "q2 Q0 d3 2 0.3 t\n"),
                      lambda p, cache: parse_run_file(p, -1, cache=cache)),
    "qrels-seed77": ("qrels", lambda d, bench: bench / "qrels", parse_diversity_qrels),
    "qrels-empty": ("qrels", lambda d, bench: _small(d, "qrels", ""), parse_diversity_qrels),
    "qrels-duplicates": ("qrels", lambda d, bench: _small(d, "qrels", "q1 a d1 1\nq1 a d1 0\nq1 b d2 1\nq2 a d1 1\n"),
                         parse_diversity_qrels),
}


def assert_same(cold, warm):
    """``warm`` holds exactly ``cold``'s members: equal ids, counts and maps, and arrays of one dtype, shape, write
    flag and values."""
    assert type(warm) is type(cold) and vars(warm).keys() == vars(cold).keys()
    for name, value in vars(cold).items():
        other = getattr(warm, name)
        if isinstance(value, np.ndarray):
            assert (other.dtype, other.shape, other.flags.writeable) == (value.dtype, value.shape,
                                                                        value.flags.writeable), name
            assert np.array_equal(other, value), name
        else:
            assert other == value, name


def _no_parse(monkeypatch):
    """Make every text parse fail, so a read that returns came from the parse cache."""
    def parse(*args, **kwargs):
        raise AssertionError("parsed, not read from the cache")

    monkeypatch.setattr("fairrank.ingest._read", parse)


class TestParseCache:
    @pytest.mark.parametrize("case", sorted(CACHED))
    def test_warm_read_equals_cold_member_for_member(self, tmp_path, bench_inputs, monkeypatch, case):
        kind, write, read = CACHED[case]
        path, cache = write(tmp_path, bench_inputs), tmp_path / "cache"
        cold = read(path, cache=None)
        assert_same(cold, read(path, cache=cache))
        (entry,) = cache.iterdir()
        assert re.fullmatch(rf"{kind}-[0-9a-f]{{10,}}-[0-9a-f]{{20,}}\.npz", entry.name)
        with monkeypatch.context() as patched:
            _no_parse(patched)
            assert_same(cold, read(path, cache=cache))
        assert list(cache.iterdir()) == [entry]

    def test_entries_differ_by_reader_argument(self, bench_inputs, tmp_path):
        for truncate in (None, -1, 50):
            parse_run_file(bench_inputs / "input.run", truncate, cache=tmp_path)
        assert len(list(tmp_path.glob("run-*.npz"))) == 3

    def test_score_store_directory_bypasses_the_cache(self, tmp_path):
        # A user with no scored item keeps an empty row in the store, which the table cannot hold.
        scores = ScoreMatrix(["u1", "u2"], ["i1", "i2"], [[0.5, 0.0], [0.0, 0.0]], [[True, False], [False, False]])
        write_scores(scores, tmp_path / "s")
        assert_same(read_scores(tmp_path / "s"), read_scores(tmp_path / "s", cache=tmp_path / "cache"))
        assert read_scores(tmp_path / "s", cache=tmp_path / "cache").n_valid.tolist() == [1, 0]
        assert not (tmp_path / "cache").exists()

    # kind -> (the input, the input edited to the same length, the name it is written as, reader, the member the
    # edit changes)
    EDITS = {
        "scores": ("user_id\titem_id\tscore\nu1\ti1\t0.5\n", "user_id\titem_id\tscore\nu1\ti1\t0.7\n", "scores.tsv",
                   lambda d, cache: read_scores(d, cache=cache), "S"),
        "run": ("q1 Q0 d1 1 0.5 t\n", "q1 Q0 d1 1 0.7 t\n", "run",
                lambda d, cache: parse_run_file(d / "run", cache=cache), "scores"),
        "qrels": ("q1 a d1 1\nq1 a d2 1\n", "q1 a d1 1\nq1 a d2 0\n", "qrels",
                  lambda d, cache: parse_diversity_qrels(d / "qrels", cache=cache), "rel"),
    }

    @pytest.mark.parametrize("kind", sorted(EDITS))
    def test_input_edited_to_the_same_length_misses(self, tmp_path, kind):
        text, edited, name, read, member = self.EDITS[kind]
        (tmp_path / "in").mkdir()
        _small(tmp_path / "in", name, text)
        first = read(tmp_path / "in", tmp_path / "cache")
        (old,) = (tmp_path / "cache").iterdir()
        _small(tmp_path / "in", name, edited)
        second = read(tmp_path / "in", tmp_path / "cache")
        assert_same(read(tmp_path / "in", None), second)
        assert not np.array_equal(getattr(first, member), getattr(second, member))
        (new,) = (tmp_path / "cache").iterdir()  # the edited input's entry replaced the old one
        assert new.name != old.name and new.name.rsplit("-", 1)[0] == old.name.rsplit("-", 1)[0]

    def test_new_entry_removes_its_slots_other_entries_only(self, tmp_path, bench_inputs):
        """An entry left by an older source or input in the same slot (input path and arguments) is removed when
        the slot is written; another slot's entry stays."""
        parse_run_file(bench_inputs / "input.run", None, cache=tmp_path)
        (other,) = tmp_path.iterdir()
        parse_run_file(bench_inputs / "input.run", 50, cache=tmp_path)
        (entry,) = set(tmp_path.iterdir()) - {other}
        entry.rename(orphan := entry.with_name(entry.name.rsplit("-", 1)[0] + "-00000000000000000.npz"))
        parse_run_file(bench_inputs / "input.run", 50, cache=tmp_path)
        assert set(tmp_path.iterdir()) == {other, entry} and not orphan.exists()

    @pytest.mark.parametrize("damage", ["truncated", "empty", "foreign", "directory"])
    @pytest.mark.parametrize("case", ["run-seed77-truncate-50", "qrels-seed77", "scores-seed77"])
    def test_damaged_or_foreign_entry_is_parsed_again_and_rewritten(self, tmp_path, bench_inputs, monkeypatch, case,
                                                                     damage):
        kind, write, read = CACHED[case]
        path, cache = write(tmp_path, bench_inputs), tmp_path / "cache"
        cold = read(path, cache=cache)
        (entry,) = cache.iterdir()
        if damage == "directory":
            entry.unlink()
            entry.mkdir()
        else:
            foreign = io.BytesIO()
            np.savez(foreign, x=np.zeros(3))
            entry.write_bytes({"truncated": entry.read_bytes()[:100], "empty": b"",
                               "foreign": foreign.getvalue()}[damage])
        assert_same(cold, read(path, cache=cache))
        if damage == "directory":  # an entry that cannot be replaced is parsed each time
            assert entry.is_dir()
            return
        with monkeypatch.context() as patched:
            _no_parse(patched)
            assert_same(cold, read(path, cache=cache))
        assert list(cache.iterdir()) == [entry]

    @pytest.mark.parametrize("fault", [OSError(28, "No space left on device"), MemoryError()], ids=["disk", "memory"])
    @pytest.mark.parametrize("case", ["run-seed77-truncate-50", "qrels-seed77", "scores-probability"])
    def test_unwritable_cache_parses_and_leaves_nothing(self, tmp_path, bench_inputs, monkeypatch, case, fault):
        kind, write, read = CACHED[case]
        path = write(tmp_path, bench_inputs)
        cold = read(path, cache=None)
        (tmp_path / "file").write_text("not a directory", encoding="utf-8")
        assert_same(cold, read(path, cache=tmp_path / "file"))
        assert (tmp_path / "file").read_text(encoding="utf-8") == "not a directory"
        (tmp_path / "full").mkdir()

        def write_part_then_fail(file, **arrays):
            file.write(b"PK")
            raise fault

        monkeypatch.setattr(np, "savez", write_part_then_fail)
        assert_same(cold, read(path, cache=tmp_path / "full"))
        assert list((tmp_path / "full").iterdir()) == []

    # An edit during the parse: one that changes the file's size, and one in place to the same length with the
    # modification time set back, which only reading the bytes again can see.
    @pytest.mark.parametrize("edit", ["q1 a d1 1\nq1 a d2 1\n", "q1 a d9 1\n"], ids=["grown", "same-stamp"])
    def test_input_edited_while_parsed_writes_no_entry(self, tmp_path, monkeypatch, edit):
        path = _small(tmp_path, "qrels", "q1 a d1 1\n")
        stat, read = path.stat(), ingest._read

        def read_then_edit(*args, **kwargs):
            columns = read(*args, **kwargs)
            with open(path, "r+", encoding="utf-8") as fh:
                fh.write(edit)
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            return columns

        monkeypatch.setattr("fairrank.ingest._read", read_then_edit)
        assert parse_diversity_qrels(path, cache=tmp_path / "cache").doc_ids == ["d1"]
        assert not (tmp_path / "cache").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_parsed_without_an_entry(self, tmp_path):
        """A pipe can be read only once, so a checksum before the parse would leave the parser nothing."""
        path = tmp_path / "qrels"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("q1 a d1 1\n",), kwargs={"encoding": "utf-8"})

        def release():  # a second open that waits for a writer gets an empty pipe, so a fault fails, not hangs
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))

        watchdog = threading.Timer(10, release)
        writer.start()
        watchdog.start()
        try:
            judgments = parse_diversity_qrels(path, cache=tmp_path / "cache")
        finally:
            watchdog.cancel()
            writer.join()
        assert judgments.doc_ids == ["d1"]
        assert not (tmp_path / "cache").exists()

    # kind -> (a bad input, the name it is written as, reader)
    BAD = {
        "scores-value": ("user_id\titem_id\tscore\nu1\ti1\tx\n", "scores.tsv", lambda d, c: read_scores(d, cache=c)),
        "scores-probability": ("user_id\titem_id\tscore\nu1\ti1\t1.5\n", "scores.tsv",
                               lambda d, c: read_scores(d, cache=c)),
        "scores-missing": (None, "scores.tsv", lambda d, c: read_scores(d, cache=c)),
        "run-rank": ("q1 Q0 d1 2 0.5 t\nq1 Q0 d2 1 0.4 t\n", "run", lambda d, c: parse_run_file(d / "run", cache=c)),
        "run-not-utf8": ("q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.4 t\n", "run",
                         lambda d, c: parse_run_file(d / "run", cache=c)),
        "qrels-relevance": ("q1 a d1 1\nq1 a d2 2\n", "qrels",
                            lambda d, c: parse_diversity_qrels(d / "qrels", cache=c)),
        "qrels-missing": (None, "qrels", lambda d, c: parse_diversity_qrels(d / "qrels", cache=c)),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_failed_parse_writes_no_entry_and_gives_the_same_error_twice(self, tmp_path, case):
        text, name, read = self.BAD[case]
        directory = tmp_path / "in"
        directory.mkdir()
        if case == "scores-probability":
            _small(directory, "scores.meta.yaml", "semantics: probability\n")
        if text is not None:
            _small(directory, name, text)
        if case.endswith("not-utf8"):
            with_bad_line_2(directory / name)
        errors = []
        for cache in (None, tmp_path / "cache", tmp_path / "cache"):
            with pytest.raises(FairrankError) as raised:
                read(directory, cache)
            errors.append((type(raised.value), str(raised.value)))
        assert errors[0] == errors[1] == errors[2]
        assert not (tmp_path / "cache").exists()
