"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime bound is asserted, not just printed.
"""

import hashlib
import math
import time

import numpy as np
import pytest
import yaml

from fairrank import cli
from fairrank.core import GroupUtilityVector, group_utility
from fairrank.diverse_rerank import DiversifyContext, pm2, xquad
from fairrank.fair_rerank import (
    RerankContext,
    cpfair,
    fairrec,
    min_regularizer,
    pmmf,
    topk,
    welf,
)
from fairrank.ingest import parse_diversity_qrels, read_dataset, write_dataset
from fairrank.metrics import (
    entropy,
    gini,
    min_max_ratio,
    mmf,
    rerank_quality,
)
from fairrank.synth import init_workspace, synthetic_dataset
from fairrank.trainer import TrainConfig, TrainHooks, train

from conftest import (
    full_coverage_instance,
    make_catalog,
    make_judgments,
    random_diversity_instance,
    random_instance,
    score_matrix,
)
from reference_diverse import alpha_ndcg_query, err_ia_query, lists_of, picked, pm2_oracle, xquad_oracle
from reference_metrics import IdSlates, ids
from reference_rerank import welf_objective
from reference_trainer import bpr_triple_loss, score
from test_trainer import biased_dataset, pairwise_auc, planted_dataset, reference_bpr


def passed(criterion: int, description: str) -> None:
    print(f"[PASS] criterion {criterion:02d}: {description}")


def guv(values: dict[str, float]) -> GroupUtilityVector:
    return GroupUtilityVector("item", "exposure", sorted(values), [values[g] for g in sorted(values)])


def test_c01_metric_identities():
    started = time.perf_counter()
    for n in range(2, 65):
        uniform = guv({f"g{i}": 3.7 for i in range(n)})
        assert gini(uniform) == 0.0
        assert abs(entropy(uniform) - math.log(n)) <= 1e-9
        assert abs(mmf(uniform) - 1.0) <= 1e-9
        assert min_max_ratio(uniform) == 1.0
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(2, 16))
        values = rng.uniform(0.0, 10.0, size=n)
        if values.sum() == 0:
            values[0] = 1.0
        names = [f"g{i}" for i in range(n)]
        base = guv(dict(zip(names, map(float, values))))
        scale = float(rng.uniform(0.01, 50.0))
        scaled = guv({g: scale * v for g, v in zip(names, map(float, values))})
        perm = rng.permutation(n)
        permuted = guv(dict(zip(names, (float(values[p]) for p in perm))))
        for fn in (gini, entropy, mmf, min_max_ratio):
            assert abs(fn(scaled) - fn(base)) <= 1e-9
            assert abs(fn(permuted) - fn(base)) <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    passed(1, f"metric identities and invariances (200 vectors, {elapsed:.2f}s)")


def test_c02_knob_zero_reductions():
    started = time.perf_counter()
    for trial in range(100):
        rng = np.random.default_rng(20_000 + trial)
        n_users = int(rng.integers(2, 51))
        n_items = int(rng.integers(5, 101))
        n_groups = int(rng.integers(2, 9))
        catalog, matrix = random_instance(rng, n_users, n_items, n_groups)
        k = int(rng.integers(1, min(10, n_items) + 1))
        ctx = lambda: RerankContext(matrix, catalog, k)
        base = ids(topk(ctx()))
        assert ids(min_regularizer(ctx(), lam=0.0)) == base
        assert ids(pmmf(ctx(), lam=0.0)) == base
        assert ids(welf(ctx(), lam=0.0)) == base
        assert ids(cpfair(ctx(), lam=1.0, swap_budget=0)) == base
        assert ids(fairrec(ctx(), phi=1e-12)) == base
        run, judgments = random_diversity_instance(rng, max_docs=8, max_intents=4)
        pool = lists_of(run).docs("q1")
        dk = int(rng.integers(1, len(pool) + 1))
        dctx = DiversifyContext(run, judgments, lam=0.0, k=dk)
        assert picked(run, xquad(dctx))["q1"] == pool[:dk]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    passed(2, f"knob-at-zero reductions on 100 instances ({elapsed:.2f}s)")


def test_c03_fairrec_max_min_share():
    started = time.perf_counter()
    for trial in range(50):
        rng = np.random.default_rng(30_000 + trial)
        catalog, matrix = full_coverage_instance(rng, 20, 50, 5)
        slates = fairrec(RerankContext(matrix, catalog, 5), phi=1.0)
        exposure = group_utility(slates, catalog)
        floor = math.floor(5 * 20 / 5)
        assert floor == 20
        assert all(v >= floor for v in exposure.values)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(3, f"max-min share floor 20 met on 50 instances ({elapsed:.2f}s)")


def test_c04_dual_descent_invariants_and_effect():
    for trial in range(20):
        rng = np.random.default_rng(40_000 + trial)
        catalog, matrix = random_instance(rng, int(rng.integers(5, 30)), int(rng.integers(10, 60)), int(rng.integers(2, 6)))
        lam = float(rng.choice([0.5, 2.0, 10.0]))
        states = []
        pmmf(RerankContext(matrix, catalog, 3), lam=lam, on_update=states.append)
        for state in states:
            assert abs(sum(state.tolist()) - lam) <= 1e-6
            assert all(p >= 0 for p in state.tolist())

    local = np.random.default_rng(424242)
    catalog, matrix = full_coverage_instance(local, 20, 30, 3)
    plain = pmmf(RerankContext(matrix, catalog, 3), lam=0.0)
    fair = pmmf(RerankContext(matrix, catalog, 3), lam=10.0)
    min_plain = min(group_utility(plain, catalog).values)
    min_fair = min(group_utility(fair, catalog).values)
    assert min_fair >= min_plain
    r_ndcg, _ = rerank_quality(fair, 3)
    assert r_ndcg <= 1.0 + 1e-9
    passed(4, f"dual state on simplex everywhere; min exposure {min_plain:.0f} -> {min_fair:.0f}; r-ndcg <= 1")


def test_c05_welfare_frank_wolfe():
    for trial in range(20):
        rng = np.random.default_rng(50_000 + trial)
        catalog, matrix = random_instance(rng, int(rng.integers(4, 25)), int(rng.integers(8, 50)), int(rng.integers(2, 6)))
        k = int(rng.integers(1, 6))
        slates = welf(RerankContext(matrix, catalog, k), lam=float(rng.uniform(0.1, 5.0)), iters=40)
        assert all(g >= -1e-9 for g in slates.meta["duality_gaps"])
        assert slates.meta["polytope_max_row_dev"] <= 1e-9
        assert slates.meta["polytope_entry_min"] >= -1e-9
        assert slates.meta["polytope_entry_max"] <= 1.0 + 1e-9

    catalog = make_catalog(
        {"i1": {"g1"}, "i2": {"g1"}, "i3": {"g2"}, "i4": {"g2"}}, users=["u1", "u2"]
    )
    matrix = score_matrix(
        {
            "u1": {"i1": 0.9, "i2": 0.8, "i3": 0.2, "i4": 0.1},
            "u2": {"i1": 0.85, "i2": 0.75, "i3": 0.3, "i4": 0.05},
        }
    )
    ctx = RerankContext(matrix, catalog, 1)
    result = welf(ctx, lam=1.0, alpha=0.5, iters=200)
    best = max(
        welf_objective(ctx, IdSlates(k=1, slates={"u1": [a], "u2": [b]}), lam=1.0, alpha=0.5)
        for a in catalog.items
        for b in catalog.items
    )
    assert result.meta["objective"] >= 0.95 * best
    passed(5, f"duality gaps >= -1e-9, polytope respected; objective within {result.meta['objective'] / best:.3f} of 16-policy optimum")


def test_c06_greedy_oracle_equivalence():
    started = time.perf_counter()
    for trial in range(200):
        rng = np.random.default_rng(60_000 + trial)
        run, judgments = random_diversity_instance(rng, max_docs=8, max_intents=4)
        entries = lists_of(run).queries["q1"]
        lam = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(1, len(entries) + 1))
        ctx = DiversifyContext(run, judgments, lam=lam, k=k)
        assert picked(run, xquad(ctx))["q1"] == xquad_oracle(entries, judgments, lam, k)
        assert picked(run, pm2(ctx))["q1"] == pm2_oracle(entries, judgments, lam, k)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    passed(6, f"xquad/pm2 match step-wise oracles on 200 instances ({elapsed:.2f}s)")


def test_c07_diversity_worked_examples():
    judg = make_judgments({"d1": {"i1"}, "d2": {"i1"}, "d3": {"i2"}}, ["i1", "i2"])
    value = alpha_ndcg_query(["d1", "d2", "d3"], judg, alpha=0.5, k=3, ideal="exhaustive")
    assert value == pytest.approx(0.9652, abs=1e-4)
    cascade = make_judgments({"d1": {"i1"}, "d2": {"i1"}}, ["i1"])
    assert err_ia_query(["d1", "d2"], cascade, k=2) == pytest.approx(0.625, abs=1e-9)
    passed(7, f"alpha-ndcg example = {value:.4f}; err-ia cascade = 0.625")


def test_c08_pairwise_trainer():
    rng = np.random.default_rng(88)
    h = 1e-5
    for _ in range(20):
        p, qp, qn = rng.normal(size=(3, 8))
        w = float(rng.uniform(0.2, 3.0))
        l2 = float(rng.uniform(0.0, 0.05))
        _, g_pu, g_qp, g_qn, _, _ = bpr_triple_loss(p, qp, qn, w, l2)
        for vec, grad, pos in ((p, g_pu, 0), (qp, g_qp, 1), (qn, g_qn, 2)):
            j = int(rng.integers(0, 8))
            args_plus = [p.copy(), qp.copy(), qn.copy()]
            args_minus = [p.copy(), qp.copy(), qn.copy()]
            args_plus[pos][j] += h
            args_minus[pos][j] -= h
            fd = (bpr_triple_loss(*args_plus, w, l2)[0] - bpr_triple_loss(*args_minus, w, l2)[0]) / (2 * h)
            assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-4

    started = time.perf_counter()
    dataset = planted_dataset()
    config = TrainConfig(dim=16, epochs=50, lr=0.1, l2=1e-4, seed=1, batch_size=32)
    model = train(dataset, config, TrainHooks())
    auc = pairwise_auc(model, dataset)
    elapsed = time.perf_counter() - started
    assert auc >= 0.9
    assert elapsed < 30.0

    small = planted_dataset(n_per_cluster=6, items_per_cluster=8, preferred=5, other=1)
    small_config = TrainConfig(dim=8, epochs=4, seed=5)
    fitted = train(small, small_config, TrainHooks())
    P_ref, Q_ref = reference_bpr(small, small_config)
    assert np.array_equal(fitted.user_vecs, P_ref)
    assert np.array_equal(fitted.item_vecs, Q_ref)
    passed(8, f"gradients match FD; planted AUC {auc:.3f} in {elapsed:.1f}s; neutral hooks bit-match")


def test_c09_regularizer_shrinks_group_gap():
    dataset = biased_dataset()

    def group_gap(model):
        sums = {"gA": [], "gB": []}
        train = dataset.train
        for user, item in zip(map(train.user_ids.__getitem__, train.user), map(train.item_ids.__getitem__, train.item)):
            g = next(iter(dataset.catalog.item_groups[item]))
            sums[g].append(score(model, user, item))
        return abs(float(np.mean(sums["gA"])) - float(np.mean(sums["gB"])))

    config = TrainConfig(dim=16, epochs=30, lr=0.1, l2=1e-4, seed=2)
    gap_plain = group_gap(train(dataset, config, TrainHooks()))
    gap_reg = group_gap(train(dataset, config, TrainHooks(regularizer="reg", reg_weight=10.0)))
    assert gap_reg < gap_plain
    passed(9, f"inter-group score gap {gap_plain:.4f} -> {gap_reg:.4f} under reg penalty")


def test_c10_ingestion_round_trips(tmp_path, rng):
    fixtures = [
        synthetic_dataset(n_users=25, n_items=30, n_groups=3, seed=1),
        synthetic_dataset(n_users=60, n_items=50, n_groups=6, seed=2, per_user=(6, 10)),
        synthetic_dataset(n_users=10, n_items=15, n_groups=2, seed=3, per_user=(5, 7)),
    ]
    for idx, (dataset, _) in enumerate(fixtures):
        write_dataset(dataset, tmp_path / f"ds{idx}")
        back = read_dataset(tmp_path / f"ds{idx}")
        assert back == dataset
        total = sum(len(s) for s in back.splits().values())
        assert total == sum(len(s) for s in dataset.splits().values())

    lines = []
    for qid in range(1, 13):
        n_intents = int(rng.integers(3, 9))
        for t in range(1, n_intents + 1):
            for d in range(1, 5):
                lines.append(f"{qid} {t} d{qid}-{d} {int(rng.integers(0, 2))}")
    qrels = tmp_path / "qrels"
    qrels.write_text("\n".join(lines) + "\n", encoding="utf-8")
    judg = parse_diversity_qrels(qrels)
    assert all(3 <= len(intents) <= 8 for intents in judg.intents)
    passed(10, "canonical round-trips identical; qrels fixture has 3-8 intents per query")


# Report hashes of the c11 run, recorded before the re-rankers were
# vectorised; a change that moves them changes behaviour.
C11_SHA256 = {
    "records.jsonl": "c0edc4985c1f1be4e43294a7bfa09f0c105ca69315439f221b7179f4f38141ef",
    "table.txt": "9b95be0d19ab163687c4daef4bf51f409110020112acbbc5cfa7354b1cb066c0",
    "allocations.tsv": "a7bc8c0af26ce97b092964139f97b5ca25346ff267b68b2c9b7e250e693fb767",
    "config.yaml": "32a9e72f1f969e23aa3f9d9c8be86e668271da830d4d37dd53db308c42daaa30",
}


def test_c11_end_to_end_benchmark(tmp_path):
    started = time.perf_counter()
    init_workspace(tmp_path, name="synth", n_users=1000, n_items=500, n_groups=10, seed=77, per_user=(10, 20))
    cfg = tmp_path / "bench.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "models": ["topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf"],
                "K": [10, 20],
                "log_name": "bench",
                "params": {"cpfair": {"swap_budget": 20}, "pmmf": {"lam": 5.0}},
            }
        ),
        encoding="utf-8",
    )
    argv = [
        "--task", "recommendation", "--stage", "post-processing", "--dataset", "synth",
        "--config", str(cfg), "--data-dir", str(tmp_path),
    ]
    assert cli.run(argv) == 0
    log_dir = tmp_path / "log" / "bench"
    stable = ["records.jsonl", "table.txt", "allocations.tsv", "config.yaml"]
    first = {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in stable}
    assert first == C11_SHA256
    assert len(list((tmp_path / "cache").glob("scores-*.npz"))) == 1  # so the second run reads the scores warm

    table = (log_dir / "table.txt").read_text()
    sections = {}
    for block in table.split("## "):
        if not block.strip():
            continue
        lines = block.strip().splitlines()
        sections[lines[0]] = lines[1].split()
    assert sections["ranking"] == ["Model", "K", "NDCG", "MRR", "HR", "MMF", "GINI", "Entropy"]
    assert sections["rerank"] == ["Model", "K", "R-NDCG", "u-loss", "MMF", "GINI", "Entropy", "MinMaxRatio"]
    models_in_table = {line.split()[0] for line in table.splitlines() if line and not line.startswith(("Model", "##"))}
    assert models_in_table == {"topk", "min_regularizer", "cpfair", "fairrec", "pmmf", "welf"}

    assert cli.run(argv) == 0
    second = {name: hashlib.sha256((log_dir / name).read_bytes()).hexdigest() for name in stable}
    assert first == second
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    passed(11, f"benchmark over 6 re-rankers byte-identical across runs and to the recorded hashes ({elapsed:.1f}s)")
