"""Accuracy, fairness, and diversity metric behaviour."""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typing import Sequence

import numpy as np

from fairrank import metrics as M
from fairrank.core import GroupUtilityVector
from fairrank.errors import InvariantViolation, UndefinedMetric, UnknownQuery
from fairrank.ingest import IntentJudgments, SearchRun
from fairrank.metrics import (
    entropy,
    gini,
    hit_at_k,
    min_max_ratio,
    mmf,
    mrr_at_k,
    ndcg_at_k,
    rerank_quality,
    slate_hits,
)

from conftest import make_judgments, score_matrix, slate_of
from reference_diverse import alpha_ndcg_query, run_of as search_run
from reference_ingest import log_of


def guv(values: dict[str, float]) -> GroupUtilityVector:
    return GroupUtilityVector("item", "exposure", sorted(values), [values[g] for g in sorted(values)])


def run_of(docs: Sequence[str]) -> SearchRun:
    """A one-query run ranking ``docs`` in order."""
    return search_run({"q1": [(doc, float(len(docs) - r)) for r, doc in enumerate(docs)]})


def relevant_log(relevant: dict[str, set[str]]):
    """A test split with one label-1 row per (user, relevant item)."""
    return log_of((user, item, 1.0, 0) for user, items in relevant.items() for item in sorted(items))


def accuracy(metric, rows: dict[str, list[str]], relevant, k: int) -> float:
    """An accuracy metric of the slates ``rows`` (item ids; each listed item scored) at ``k``."""
    return metric(slate_hits(slate_of(k, rows), relevant_log(relevant), k))


def alpha_ndcg(run: SearchRun, judg: IntentJudgments, alpha: float = 0.5, k: int = 10) -> float:
    return M.alpha_ndcg(M.judged_top(run, judg, k), judg, alpha, k)


def err_ia(run: SearchRun, judg: IntentJudgments, k: int = 10) -> float:
    return M.err_ia(M.judged_top(run, judg, k), judg)


def s_recall(run: SearchRun, judg: IntentJudgments, k: int = 10) -> float:
    return M.s_recall(M.judged_top(run, judg, k), judg)


class TestNdcg:
    def test_perfect_at_rank_one(self):
        assert accuracy(ndcg_at_k, {"u": ["i1"]}, {"u": {"i1"}}, 1) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert accuracy(ndcg_at_k, {"u": ["i2", "i1"]}, {"u": {"i1"}}, 2) == pytest.approx(1.0 / math.log2(3), abs=1e-4)

    def test_miss_is_zero(self):
        assert accuracy(ndcg_at_k, {"u": ["i2", "i3"]}, {"u": {"i1"}}, 2) == 0.0

    def test_no_relevant_users_undefined(self):
        with pytest.raises(UndefinedMetric):
            accuracy(ndcg_at_k, {"u": ["i1"]}, {}, 1)


class TestMrr:
    def test_first_relevant_rank_three(self):
        assert accuracy(mrr_at_k, {"u": ["a", "b", "i1"]}, {"u": {"i1"}}, 3) == pytest.approx(1 / 3)

    def test_rank_one(self):
        assert accuracy(mrr_at_k, {"u": ["i1", "b", "c"]}, {"u": {"i1"}}, 3) == 1.0

    def test_none_in_topk(self):
        assert accuracy(mrr_at_k, {"u": ["a", "b"]}, {"u": {"i1"}}, 2) == 0.0


class TestHit:
    def test_all_users_hit(self):
        assert accuracy(hit_at_k, {"u1": ["i1"], "u2": ["i2"]}, {"u1": {"i1"}, "u2": {"i2"}}, 1) == 1.0

    def test_one_of_four(self):
        slates = {f"u{i}": ["x"] for i in range(4)} | {"u0": ["i0"]}
        relevant = {f"u{i}": {f"i{i}"} for i in range(4)}
        assert accuracy(hit_at_k, slates, relevant, 1) == 0.25

    def test_three_of_eight(self):
        slates = {f"u{i}": [f"i{i}"] if i < 3 else ["x"] for i in range(8)}
        relevant = {f"u{i}": {f"i{i}"} for i in range(8)}
        assert accuracy(hit_at_k, slates, relevant, 1) == 0.375


class TestRerankQuality:
    def test_identity_rerank(self):
        scores = score_matrix({"u": {"a": 1.0, "b": 0.5, "c": 0.2}})
        slates = slate_of(2, {"u": ["a", "b"]}, scores)
        assert rerank_quality(slates, 2) == (1.0, 0.0)

    def test_swap_of_top_two(self):
        scores = score_matrix({"u": {"a": 1.0, "b": 0.5}})
        slates = slate_of(2, {"u": ["b", "a"]}, scores)
        r_ndcg, u_loss = rerank_quality(slates, 2)
        expected = (0.5 + 1.0 / math.log2(3)) / (1.0 + 0.5 / math.log2(3))
        assert r_ndcg == pytest.approx(expected, abs=1e-9)
        assert u_loss == pytest.approx(0.0, abs=1e-12)

    def test_zero_score_replacement(self):
        scores = score_matrix({"u": {"a": 1.0, "b": 0.5, "z1": 0.0, "z2": 0.0}})
        slates = slate_of(2, {"u": ["z1", "z2"]}, scores)
        _, u_loss = rerank_quality(slates, 2)
        assert u_loss == 1.0

    def test_zero_mass_undefined(self):
        scores = score_matrix({"u": {"a": 0.0, "b": 0.0}})
        slates = slate_of(2, {"u": ["a", "b"]}, scores)
        with pytest.raises(UndefinedMetric):
            rerank_quality(slates, 2)


class TestEvaluationSharesInputs:
    def test_one_hit_array_per_row(self, monkeypatch):
        calls = []
        original = M.slate_hits
        monkeypatch.setattr(M, "slate_hits", lambda *args: calls.append(args[2]) or original(*args))
        row = M.Evaluation(2, slates=slate_of(2, {"u": ["i2", "i1"]}), relevant=relevant_log({"u": {"i1"}}))
        values = row.values(["ndcg", "mrr", "hr"])
        assert values == {"ndcg": 1.0 / math.log2(3) / 1.0, "mrr": 0.5, "hr": 1.0}
        assert calls == [2]

    def test_one_relevance_table_per_test_split(self):
        test = relevant_log({"u": {"i1"}})
        rows = [M.Evaluation(k, slates=slate_of(2, {"u": ["i2", "i1"]}), relevant=test) for k in (1, 2)]
        assert [row.values(["hr"]) for row in rows] == [{"hr": 0.0}, {"hr": 1.0}]
        assert test.__dict__["relevant"] is test.relevant  # built by the first row, kept for the second

    def test_one_gather_per_row(self, monkeypatch):
        calls = []
        original = M.judged_top
        monkeypatch.setattr(M, "judged_top", lambda *args: calls.append(args[2]) or original(*args))
        judg = make_judgments({"d1": {"i1"}, "d2": {"i2"}}, ["i1", "i2"])
        row = M.Evaluation(1, run=run_of(["d1", "d2"]), judgments=judg, alpha=0.5)
        values = row.values(["err_ia", "alpha_ndcg", "s_rec"])
        assert values == {"err_ia": 0.25, "alpha_ndcg": 1.0, "s_rec": 0.5}
        assert calls == [1]

    def test_gather_errors_keep_their_order(self):
        judg = make_judgments({"d1": {"i1"}}, ["i1"])
        unjudged = M.Evaluation(1, run=search_run({"q9": [("d1", 1.0)]}), judgments=judg, alpha=2.0)
        with pytest.raises(UnknownQuery):
            unjudged.values(["alpha_ndcg"])
        empty = M.Evaluation(1, run=search_run({}), judgments=judg, alpha=2.0)
        with pytest.raises(UndefinedMetric, match="run contains no queries"):
            empty.values(["alpha_ndcg"])
        with pytest.raises(InvariantViolation, match="alpha"):
            M.Evaluation(1, run=run_of(["d1"]), judgments=judg, alpha=2.0).values(["alpha_ndcg"])


class TestJudgedTopMatchesIdsExactly:
    @pytest.mark.parametrize("run_doc, judged_doc", [("d\0", "d"), ("d", "d\0"), ("d ", "d"), ("D", "d")])
    def test_ids_differing_only_at_the_end_do_not_match(self, run_doc, judged_doc):
        judg = make_judgments({judged_doc: {"i1"}}, ["i1"])
        _, rel = M.judged_top(run_of([run_doc, judged_doc + "x"]), judg, 2)
        assert not rel.any()
        _, rel = M.judged_top(run_of(["x", judged_doc]), judg, 2)
        assert rel[0, :, 0].tolist() == [False, True]

    def test_a_long_id_does_not_widen_the_doc_table(self):
        docs = [f"d{i:04d}" for i in range(2000)]
        judg = make_judgments({doc: {"i1"} for doc in docs[::2]}, ["i1"])
        run = search_run({"q1": [(doc, 1.0 - r / 4096) for r, doc in enumerate(docs + ["x" * 5_000])]})
        tracemalloc.start()
        try:
            _, rel = M.judged_top(run, judg, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rel[0, :, 0].tolist() == [r % 2 == 0 and r < 2000 for r in range(2001)]
        assert peak < 4 << 20  # fixed-width ids would take 2001 x 5,000 x 4 bytes = 40 MB

    def test_the_doc_tables_are_matched_once_per_run_and_judgments(self):
        judg = make_judgments({"d1": {"i1"}, "d2": {"i2"}}, ["i1", "i2"])
        run = run_of(["d2", "d3", "d1"])
        codes = run.codes_in(judg)
        assert codes.tolist() == [0, 1, -1]
        assert run.codes_in(judg) is codes and run.rerank([2, 0]).codes_in(judg) is codes
        other = make_judgments({"d3": {"i1"}}, ["i1"])
        assert run.codes_in(other).tolist() == [-1, -1, 0]


class TestGini:
    def test_uniform_zero(self):
        assert gini(guv({"a": 2, "b": 2, "c": 2})) == 0.0

    def test_hand_value(self):
        # Brute-force pairwise sum: 12 / (2 * 3 * 4).
        assert gini(guv({"a": 0, "b": 1, "c": 3})) == pytest.approx(0.5)

    def test_all_zero(self):
        assert gini(guv({"a": 0, "b": 0})) == 0.0

    def test_matches_pairwise_definition(self, rng):
        for _ in range(25):
            vals = {f"g{i}": float(v) for i, v in enumerate(rng.uniform(0, 10, size=int(rng.integers(2, 9))))}
            v = guv(vals)
            xs = list(vals.values())
            brute = sum(abs(a - b) for a in xs for b in xs) / (2 * len(xs) * sum(xs))
            assert gini(v) == pytest.approx(brute, abs=1e-12)


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert entropy(guv({f"g{i}": 1.0 for i in range(4)})) == pytest.approx(math.log(4), abs=1e-9)

    def test_degenerate(self):
        assert entropy(guv({"a": 1, "b": 0, "c": 0})) == 0.0

    def test_hand_value(self):
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert entropy(guv({"a": 1, "b": 3})) == pytest.approx(expected, abs=1e-9)
        assert entropy(guv({"a": 1, "b": 3})) == pytest.approx(0.5623, abs=1e-4)


class TestMmf:
    def test_uniform_one(self):
        assert mmf(guv({"a": 3, "b": 3})) == pytest.approx(1.0)

    def test_starved_group(self):
        assert mmf(guv({"a": 2, "b": 0})) == 0.0

    def test_hand_value(self):
        assert mmf(guv({"a": 1, "b": 3})) == pytest.approx(0.5)


class TestMinMaxRatio:
    def test_uniform(self):
        assert min_max_ratio(guv({"a": 2, "b": 2})) == 1.0

    def test_quarter(self):
        assert min_max_ratio(guv({"a": 1, "b": 4})) == 0.25

    def test_all_zero(self):
        assert min_max_ratio(guv({"a": 0, "b": 0})) == 1.0


class TestFairnessMetricInvariances:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=10).filter(
            lambda xs: sum(xs) > 0
        ),
        st.floats(min_value=0.01, max_value=50.0),
        st.randoms(use_true_random=False),
    )
    def test_scale_and_permutation_invariance(self, values, scale, pyrandom):
        names = [f"g{i}" for i in range(len(values))]
        v = guv(dict(zip(names, values)))
        shuffled = list(values)
        pyrandom.shuffle(shuffled)
        v_perm = guv(dict(zip(names, shuffled)))
        v_scaled = guv({g: scale * x for g, x in zip(names, values)})
        for fn in (gini, entropy, mmf, min_max_ratio):
            assert fn(v_scaled) == pytest.approx(fn(v), rel=1e-9, abs=1e-9)
            assert fn(v_perm) == pytest.approx(fn(v), rel=1e-9, abs=1e-9)

    def test_bounds_and_simultaneous_extremes(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 12))
            v = guv({f"g{i}": float(x) for i, x in enumerate(rng.uniform(0, 5, size=n))})
            assert 0.0 <= gini(v) < 1.0
            assert 0.0 <= entropy(v) <= math.log(n) + 1e-12
            assert 0.0 <= mmf(v) <= 1.0 + 1e-12
            assert 0.0 <= min_max_ratio(v) <= 1.0
        uniform = guv({f"g{i}": 2.0 for i in range(6)})
        assert gini(uniform) == 0.0
        assert entropy(uniform) == pytest.approx(math.log(6), abs=1e-9)
        assert mmf(uniform) == pytest.approx(1.0)
        assert min_max_ratio(uniform) == 1.0


class TestAlphaNdcg:
    def _worked_example(self):
        judg = make_judgments({"d1": {"i1"}, "d2": {"i1"}, "d3": {"i2"}}, ["i1", "i2"])
        return ["d1", "d2", "d3"], judg

    def test_worked_example_exhaustive(self):
        docs, judg = self._worked_example()
        value = alpha_ndcg_query(docs, judg, alpha=0.5, k=3, ideal="exhaustive")
        assert value == pytest.approx(0.9652, abs=1e-4)

    def test_alpha_zero_reduces_to_repeated_gain_ndcg(self):
        judg = make_judgments({"d1": {"i1"}, "d2": {"i1"}}, ["i1"])
        value = alpha_ndcg_query(["d1", "d2"], judg, alpha=0.0, k=2, ideal="exhaustive")
        assert value == 1.0

    def test_no_judged_docs_in_ranking(self):
        judg = make_judgments({"d9": {"i1"}}, ["i1"])
        assert alpha_ndcg(run_of(["a", "b"]), judg, alpha=0.5, k=2) == 0.0

    def test_exhaustive_le_greedy(self, rng):
        # Exhaustive ideal DCG >= greedy ideal DCG, so the normalized metric can only shrink.
        for _ in range(40):
            n_docs = int(rng.integers(2, 7))
            intents = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
            doc_intents = {}
            for d in range(n_docs):
                member = {i for i in intents if rng.random() < 0.6}
                if member:
                    doc_intents[f"d{d}"] = member
            if not doc_intents:
                continue
            judg = make_judgments(doc_intents, intents)
            ranking = [f"d{d}" for d in range(n_docs)]
            exh = alpha_ndcg_query(ranking, judg, alpha=0.5, k=n_docs, ideal="exhaustive")
            gre = alpha_ndcg(run_of(ranking), judg, alpha=0.5, k=n_docs)
            assert exh <= gre + 1e-12

    def test_unknown_query(self):
        run = search_run({"q9": [("d1", 1.0)]})
        judg = IntentJudgments([], [], [], [], np.zeros((0, 0, 0), dtype=bool))
        with pytest.raises(UnknownQuery):
            alpha_ndcg(run, judg)

    def test_in_unit_interval(self, rng):
        for _ in range(30):
            n_docs = int(rng.integers(2, 8))
            intents = [f"t{i}" for i in range(int(rng.integers(1, 5)))]
            doc_intents = {f"d{d}": {i for i in intents if rng.random() < 0.5} for d in range(n_docs)}
            doc_intents = {d: s for d, s in doc_intents.items() if s}
            if not doc_intents:
                continue
            judg = make_judgments(doc_intents, intents)
            perm = [f"d{d}" for d in rng.permutation(n_docs)]
            assert 0.0 <= alpha_ndcg(run_of(perm), judg, 0.5, n_docs) <= 1.0 + 1e-12


class TestErrIa:
    def test_single_relevant_rank_one(self):
        judg = make_judgments({"d1": {"i1"}}, ["i1"])
        assert err_ia(run_of(["d1"]), judg, k=1) == pytest.approx(0.5)

    def test_no_relevant(self):
        judg = make_judgments({"d9": {"i1"}}, ["i1"])
        assert err_ia(run_of(["a", "b"]), judg, k=2) == 0.0

    def test_cascade_two_relevant(self):
        judg = make_judgments({"d1": {"i1"}, "d2": {"i1"}}, ["i1"])
        assert err_ia(run_of(["d1", "d2"]), judg, k=2) == pytest.approx(0.625, abs=1e-9)

    def test_bounded_by_one(self, rng):
        for _ in range(30):
            intents = [f"t{i}" for i in range(int(rng.integers(1, 4)))]
            doc_intents = {f"d{d}": {i for i in intents if rng.random() < 0.5} for d in range(6)}
            doc_intents = {d: s for d, s in doc_intents.items() if s}
            if not doc_intents:
                continue
            judg = make_judgments(doc_intents, intents)
            assert 0.0 <= err_ia(run_of([f"d{d}" for d in range(6)]), judg, 6) <= 1.0


class TestSubtopicRecall:
    def test_full_coverage(self):
        judg = make_judgments({"d1": {"i1"}, "d2": {"i2"}}, ["i1", "i2"])
        assert s_recall(run_of(["d1", "d2"]), judg, 2) == 1.0

    def test_half_coverage(self):
        judg = make_judgments({"d1": {"i1"}, "d2": {"i2"}}, ["i1", "i2"])
        assert s_recall(run_of(["d1"]), judg, 1) == 0.5

    def test_three_of_eight(self):
        intents = [f"i{j}" for j in range(8)]
        judg = make_judgments({f"d{j}": {f"i{j}"} for j in range(8)}, intents)
        assert s_recall(run_of(["d0", "d1", "d2"]), judg, 3) == 0.375

    def test_monotone_in_k(self, rng):
        intents = [f"i{j}" for j in range(5)]
        doc_intents = {f"d{j}": {intents[int(rng.integers(0, 5))]} for j in range(10)}
        judg = make_judgments(doc_intents, intents)
        docs = [f"d{j}" for j in range(10)]
        values = [s_recall(run_of(docs), judg, k) for k in range(1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))


# Candidate-list fairness measures that no report declares; they are kept
# here, with their tests, rather than as library API.


def exposure_parity(group_labels: Sequence[str], k: int) -> float:
    """Worst-group gap between exposure share (log-discounted top-k) and population share."""
    if not group_labels:
        raise InvariantViolation("no candidates")
    population: dict[str, int] = {}
    for g in group_labels:
        population[g] = population.get(g, 0) + 1
    n = len(group_labels)
    exposure: dict[str, float] = {g: 0.0 for g in population}
    total_exposure = 0.0
    for rank, g in enumerate(group_labels[:k], start=1):
        w = 1.0 / math.log2(rank + 1)
        exposure[g] += w
        total_exposure += w
    worst = 0.0
    for g in sorted(population):
        share_exp = exposure[g] / total_exposure if total_exposure > 0 else 0.0
        share_pop = population[g] / n
        worst = max(worst, abs(share_exp - share_pop))
    return worst


def igf(ranked: Sequence[tuple[float, str]], k: int) -> float:
    """In-group fairness at cutoff k, averaged over groups with accepted members.

    Per group: ratio of the lowest accepted score to the highest rejected
    score.  Groups with no rejected members contribute 1; a non-positive
    highest rejected score also counts as perfectly separated.
    """
    accepted: dict[str, list[float]] = {}
    rejected: dict[str, list[float]] = {}
    for rank, (score, group) in enumerate(ranked, start=1):
        if not math.isfinite(score):
            raise InvariantViolation("non-finite candidate score")
        bucket = accepted if rank <= k else rejected
        bucket.setdefault(group, []).append(score)
    ratios = []
    for group in sorted(accepted):
        if group not in rejected:
            ratios.append(1.0)
            continue
        max_rej = max(rejected[group])
        if max_rej <= 0.0:
            ratios.append(1.0)
        else:
            ratios.append(min(accepted[group]) / max_rej)
    if not ratios:
        raise UndefinedMetric("no group has accepted members")
    return float(np.mean(ratios))


class TestExposureParity:
    def test_single_group(self):
        assert exposure_parity(["g1", "g1", "g1"], k=3) == 0.0

    def test_two_candidates(self):
        value = exposure_parity(["g1", "g2"], k=2)
        expected = abs(1.0 / (1.0 + 1.0 / math.log2(3)) - 0.5)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(0.1131, abs=1e-3)

    def test_alternating_groups_vanishes(self):
        labels = ["a", "b"] * 50
        assert exposure_parity(labels, k=100) <= 0.02


class TestIgf:
    def test_fully_accepted_group(self):
        ranked = [(0.9, "g1"), (0.8, "g1"), (0.7, "g2"), (0.1, "g2")]
        # g1 has no rejected members -> contributes 1; g2 -> 0.7 / 0.1 = 7.
        assert igf(ranked, k=3) == pytest.approx((1.0 + 7.0) / 2)

    def test_ratio_definition(self):
        ranked = [(0.8, "g1"), (0.4, "g1")]
        assert igf(ranked, k=1) == pytest.approx(2.0)

    def test_mean_over_groups(self):
        ranked = [(0.5, "g1"), (0.4, "g2"), (0.5, "g1"), (0.8, "g2")]
        # g1: min acc 0.5 / max rej 0.5 = 1.0; g2: 0.4 / 0.8 = 0.5.
        assert igf(ranked, k=2) == pytest.approx(0.75)

    def test_no_contributing_group(self):
        with pytest.raises(UndefinedMetric):
            igf([], k=1)


class TestEvaluationValues:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value(self, monkeypatch, bad):
        monkeypatch.setattr(M, "ndcg_at_k", lambda hits: bad)
        row = M.Evaluation(10, slates=slate_of(10, {"u": ["i2", "i1"]}), relevant=relevant_log({"u": {"i1"}}),
                           utility=guv({"g1": 1.0, "g2": 1.0}))
        with pytest.raises(InvariantViolation, match=r"^non-finite value for metric 'ndcg@10'$"):
            row.values(["gini", "ndcg"])
