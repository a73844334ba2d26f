"""Search-result diversification: examples and step-wise oracle equivalence."""

import numpy as np
import pytest

from fairrank.diverse_rerank import DiversifyContext, pm2, xquad
from fairrank.errors import EmptyCandidates, InvariantViolation

from conftest import make_judgments, random_diversity_instance
from reference_diverse import (
    Query, judgments_of, lists_of, picked, pm2_oracle, pm2_query, query_of, run_of, xquad_oracle
)


def one_query(docs_scores: list[tuple[str, float]]):
    return run_of({"q1": docs_scores})


def diversified(algo, ctx: DiversifyContext) -> list[str]:
    """The docs ``algo`` picks for query ``q1``."""
    return picked(ctx.run, algo(ctx))["q1"]


class TestXquad:
    def test_lambda_zero_is_original_prefix(self):
        entries = [("d1", 0.9), ("d2", 0.7), ("d3", 0.5), ("d4", 0.2)]
        judg = make_judgments({"d4": {"i1"}}, ["i1"])
        ctx = DiversifyContext(one_query(entries), judg, lam=0.0, k=3)
        assert diversified(xquad, ctx) == ["d1", "d2", "d3"]

    def test_pure_diversity_prefers_fresh_intent(self):
        entries = [("d1", 0.9), ("d2", 0.8), ("d3", 0.1)]
        judg = make_judgments({"d1": {"i1"}, "d2": {"i1"}, "d3": {"i2"}}, ["i1", "i2"])
        ctx = DiversifyContext(one_query(entries), judg, lam=1.0, k=2)
        assert diversified(xquad, ctx) == ["d1", "d3"]

    def test_identical_coverage_keeps_original_order(self):
        entries = [("d1", 0.9), ("d2", 0.7), ("d3", 0.5)]
        judg = make_judgments({d: {"i1", "i2"} for d in ["d1", "d2", "d3"]}, ["i1", "i2"])
        for lam in (0.0, 0.3, 0.7, 1.0):
            ctx = DiversifyContext(one_query(entries), judg, lam=lam, k=3)
            assert diversified(xquad, ctx) == ["d1", "d2", "d3"]

    def test_empty_pool_rejected(self):
        judg = make_judgments({"d1": {"i1"}}, ["i1"])
        ctx = DiversifyContext(one_query([]), judg, k=2)
        with pytest.raises(EmptyCandidates):
            xquad(ctx)

    def test_predicted_relevance_hook(self):
        entries = [("d1", 0.9), ("d2", 0.5)]
        judg = make_judgments({"d1": {"i1"}}, ["i1", "i2"])
        predicted = {"q1": {("d2", "i1"): 1.0, ("d2", "i2"): 1.0}}
        ctx = DiversifyContext(
            one_query(entries), judg, intent_relevance=predicted, lam=1.0, k=1
        )
        assert diversified(xquad, ctx) == ["d2"]


class TestPm2:
    def test_single_intent_orders_by_relevance(self):
        entries = [("d1", 0.9), ("d2", 0.8), ("d3", 0.7)]
        judg = make_judgments({"d2": {"i1"}, "d3": {"i1"}}, ["i1"])
        ctx = DiversifyContext(one_query(entries), judg, lam=0.5, k=3)
        result = diversified(pm2, ctx)
        assert result == pm2_oracle(entries, judg, 0.5, 3)
        assert result[0] in {"d2", "d3"}  # covering docs first
        assert result[-1] == "d1"

    def test_zero_relevance_doc_never_displaces_covering(self):
        entries = [("d0", 1.0), ("d1", 0.9), ("d2", 0.8), ("d3", 0.7)]
        judg = make_judgments({"d1": {"i1"}, "d2": {"i2"}, "d3": {"i1"}}, ["i1", "i2"])
        ctx = DiversifyContext(one_query(entries), judg, lam=0.5, k=3)
        assert "d0" not in diversified(pm2, ctx)

    def test_disjoint_pools_alternate_seats(self):
        entries = [("d1", 0.9), ("d2", 0.8), ("d3", 0.7), ("d4", 0.6)]
        judg = make_judgments({"d1": {"i1"}, "d3": {"i1"}, "d2": {"i2"}, "d4": {"i2"}}, ["i1", "i2"])
        ctx = DiversifyContext(one_query(entries), judg, lam=0.5, k=4)
        result = diversified(pm2, ctx)
        judg = query_of(judg)
        per_intent = {
            "i1": sum(1 for d in result if "i1" in judg.doc_intents.get(d, ())),
            "i2": sum(1 for d in result if "i2" in judg.doc_intents.get(d, ())),
        }
        assert per_intent == {"i1": 2, "i2": 2}
        # Sainte-Lague hand simulation: intents alternate from the start.
        first_two = {next(iter(judg.doc_intents[d])) for d in result[:2]}
        assert first_two == {"i1", "i2"}


class TestOracleEquivalence:
    def test_selections_match_stepwise_oracle(self):
        for trial in range(60):
            rng = np.random.default_rng(9000 + trial)
            run, judgments = random_diversity_instance(rng)
            judg = query_of(judgments)
            entries = lists_of(run).queries["q1"]
            lam = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            k = int(rng.integers(1, len(entries) + 1))
            ctx = DiversifyContext(run, judgments, lam=lam, k=k)
            assert diversified(xquad, ctx) == xquad_oracle(entries, judg, lam, k)
            assert diversified(pm2, ctx) == pm2_oracle(entries, judg, lam, k)


class TestOutputInvariants:
    def test_result_is_pool_positions_padded_with_minus_one(self):
        run = run_of({"q1": [("d1", 0.9), ("d2", 0.5), ("d3", 0.1)], "q2": [("d4", 1.0)]})
        judg = judgments_of({"q1": Query.uniform({"d3": {"i1"}}, ["i1"]), "q2": Query.uniform({"d4": {"i1"}}, ["i1"])})
        for algo in (xquad, pm2):
            out = algo(DiversifyContext(run, judg, lam=1.0, k=2))
            assert out.dtype.kind == "i" and out.tolist() == [[2, 0], [0, -1]]

    def test_duplicate_free_prefix(self):
        for trial in range(20):
            rng = np.random.default_rng(400 + trial)
            run, judgments = random_diversity_instance(rng)
            pool = lists_of(run).docs("q1")
            k = int(rng.integers(1, 9))
            ctx = DiversifyContext(run, judgments, lam=0.5, k=k)
            for algo in (xquad, pm2):
                out = diversified(algo, ctx)
                assert len(out) == min(k, len(pool))
                assert len(set(out)) == len(out)
                assert set(out) <= set(pool)

    def test_pm2_seats_sum_to_covered_selections(self):
        entries = [("d1", 0.9), ("d2", 0.8), ("d3", 0.7), ("d4", 0.6)]
        judg = query_of(make_judgments({"d1": {"i1"}, "d2": {"i2"}, "d3": {"i1", "i2"}}, ["i1", "i2"]))
        result = pm2_query([d for d, _ in entries], judg, judg.relevance, lam=0.5, k=4)
        covered = sum(1 for d in result if d in judg.doc_intents)
        # Each covered selection distributes exactly one seat unit.
        votes = dict(judg.priors)
        seats = {i: 0.0 for i in judg.intents}
        for d in result:
            denom = sum(judg.relevance(d, i) for i in judg.intents)
            if denom > 0:
                for i in judg.intents:
                    seats[i] += judg.relevance(d, i) / denom
        assert sum(seats.values()) == pytest.approx(covered)

    def test_invalid_lambda_rejected(self):
        judg = make_judgments({"d1": {"i1"}}, ["i1"])
        with pytest.raises(InvariantViolation):
            DiversifyContext(one_query([("d1", 1.0)]), judg, lam=1.5)
